//! Emit every guest application (and optionally the PolyBench kernels) as
//! `.wasm` binaries on disk — the artifacts a tenant would upload to a
//! Sledge deployment — plus a ready-to-serve `sledged` JSON config.
//!
//! Usage: `genwasm <out-dir> [--polybench]`

use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = PathBuf::from(args.get(1).map(String::as_str).unwrap_or("wasm-out"));
    let with_polybench = args.iter().any(|a| a == "--polybench");
    std::fs::create_dir_all(&out_dir)?;

    let mut modules_json = Vec::new();
    for app in sledge_apps::all_apps() {
        let module = (app.module)();
        let bytes = sledge_wasm::encode::encode_module(&module);
        let path = out_dir.join(format!("{}.wasm", app.name));
        std::fs::write(&path, &bytes)?;
        println!("{:<24} {:>8} bytes", path.display(), bytes.len());
        modules_json.push(format!(
            "    {{\"name\": \"{0}\", \"wasm\": \"{0}.wasm\"}}",
            app.name
        ));
    }
    if with_polybench {
        for k in sledge_apps::polybench::kernels() {
            let bytes = sledge_wasm::encode::encode_module(&(k.build)());
            let path = out_dir.join(format!("pb-{}.wasm", k.name));
            std::fs::write(&path, &bytes)?;
            println!("{:<24} {:>8} bytes", path.display(), bytes.len());
            modules_json.push(format!(
                "    {{\"name\": \"pb-{0}\", \"wasm\": \"pb-{0}.wasm\"}}",
                k.name
            ));
        }
    }

    let config = format!(
        "{{\n  \"workers\": 4,\n  \"quantum_us\": 5000,\n  \"tier\": \"aot-opt\",\n  \
         \"modules\": [\n{}\n  ]\n}}\n",
        modules_json.join(",\n")
    );
    let cfg_path = out_dir.join("sledged.json");
    std::fs::write(&cfg_path, config)?;
    println!("wrote {}", cfg_path.display());
    println!("serve with: sledged {} 0.0.0.0:8080", cfg_path.display());
    Ok(())
}
