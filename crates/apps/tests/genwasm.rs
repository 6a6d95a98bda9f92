//! The shipped `genwasm` binary: it writes a deployable directory whose
//! every module decodes and whose `sledged` config names each of them.

#[test]
fn genwasm_writes_decodable_modules_and_a_config_naming_them() {
    let dir = std::env::temp_dir().join(format!("genwasm-{}", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_genwasm"))
        .arg(&dir)
        .arg("--polybench")
        .output()
        .expect("run genwasm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".wasm"))
        .collect();
    files.sort();
    let expected = sledge_apps::all_apps().len() + sledge_apps::polybench::kernels().len();
    assert_eq!(files.len(), expected, "{files:?}");
    for file in &files {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        if let Err(e) = sledge_wasm::decode::decode_module(&bytes) {
            panic!("{file}: {e}");
        }
    }
    let config = std::fs::read_to_string(dir.join("sledged.json")).unwrap();
    for file in &files {
        let entry = format!("\"wasm\": \"{file}\"");
        assert!(config.contains(&entry), "no {entry} in\n{config}");
    }
    assert_eq!(config.matches("\"wasm\":").count(), files.len(), "{config}");
    let _ = std::fs::remove_dir_all(&dir);
}
