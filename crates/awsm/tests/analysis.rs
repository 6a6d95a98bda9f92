//! Load-time static-analysis tests: crafted modules that must be verified,
//! linted, or rejected before any sandbox exists.

use awsm::{
    decode_artifact, encode_artifact, translate, AnalysisReport, EngineConfig, Instance, NullHost,
    Severity, StackBound, StepResult, Tier, Trap, Value,
};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Stmt};
use sledge_testkit::{cases, Rng};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::sync::Arc;

fn run(m: &Module, args: &[Value]) -> Result<Option<u64>, Trap> {
    let cm = Arc::new(translate(m, Tier::Optimized).expect("translate"));
    let mut inst = Instance::new(cm, EngineConfig::default()).expect("instantiate");
    inst.invoke_export("main", args).expect("invoke");
    loop {
        match inst.run(&mut NullHost, u64::MAX) {
            StepResult::Complete(v) => return Ok(v),
            StepResult::Trapped(t) => return Err(t),
            StepResult::OutOfFuel | StepResult::Preempted => continue,
            StepResult::Blocked => panic!("unexpected block"),
        }
    }
}

// ------------------------------------------------------------ stack bounds

#[test]
fn straight_line_module_is_bounded() {
    let mut mb = ModuleBuilder::new("sl");
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(add(i32c(1), i32c(2)))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    match cm.analysis.stack_bound {
        StackBound::Bounded(b) => assert!(b > 0, "one frame is never zero bytes"),
        StackBound::Unbounded { .. } => panic!("no calls, must be bounded"),
    }
    assert_eq!(cm.analysis.funcs.len(), 1);
    assert!(cm.analysis.diagnostics.is_empty());
    // A generous budget passes; a 1-byte budget cannot hold any frame.
    assert!(cm.analysis.check_stack(1 << 20).is_none());
    let d = cm.analysis.check_stack(1).expect("over budget");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn call_chain_bound_sums_frames() {
    // main -> mid -> leaf; the bound must cover all three frames, and be
    // strictly larger than the leaf alone.
    let mut mb = ModuleBuilder::new("chain");
    let mut leaf = FuncBuilder::new(&[], Some(ValType::I32));
    leaf.push(ret(Some(i32c(7))));
    let leaf = mb.add_func("leaf", leaf);
    let mut mid = FuncBuilder::new(&[], Some(ValType::I32));
    mid.push(ret(Some(add(call(leaf, vec![]), i32c(1)))));
    let mid = mb.add_func("mid", mid);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(add(call(mid, vec![]), i32c(1)))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    let StackBound::Bounded(total) = cm.analysis.stack_bound else {
        panic!("acyclic chain must be bounded");
    };
    let frames: u64 = cm.analysis.funcs.iter().map(|f| f.frame_bytes).sum();
    assert_eq!(total, frames, "deepest chain is all three frames");
    assert_eq!(run(&mb_clone_run(), &[]), Ok(Some(9)));

    fn mb_clone_run() -> Module {
        let mut mb = ModuleBuilder::new("chain");
        let mut leaf = FuncBuilder::new(&[], Some(ValType::I32));
        leaf.push(ret(Some(i32c(7))));
        let leaf = mb.add_func("leaf", leaf);
        let mut mid = FuncBuilder::new(&[], Some(ValType::I32));
        mid.push(ret(Some(add(call(leaf, vec![]), i32c(1)))));
        let mid = mb.add_func("mid", mid);
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(ret(Some(add(call(mid, vec![]), i32c(1)))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }
}

#[test]
fn recursion_is_unbounded_with_cycle() {
    let mut mb = ModuleBuilder::new("rec");
    let fr = mb.declare("main", &[ValType::I32], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = f.arg(0);
    f.push(if_(le_s(local(n), i32c(0)), vec![ret(Some(i32c(0)))]));
    f.push(ret(Some(add(
        local(n),
        call(fr, vec![sub(local(n), i32c(1))]),
    ))));
    mb.define(fr, f);
    mb.export_func(fr, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    let StackBound::Unbounded { cycle } = &cm.analysis.stack_bound else {
        panic!("self-recursion must be flagged unbounded");
    };
    assert!(!cycle.is_empty());
    // Any finite budget rejects it.
    let d = cm.analysis.check_stack(u64::MAX).expect("unbounded");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("recursive"), "{}", d.message);
    // The module still runs fine — rejection is a policy decision upstream.
    let ran = run(
        &{
            let mut mb = ModuleBuilder::new("rec");
            let fr = mb.declare("main", &[ValType::I32], Some(ValType::I32));
            let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
            let n = f.arg(0);
            f.push(if_(le_s(local(n), i32c(0)), vec![ret(Some(i32c(0)))]));
            f.push(ret(Some(add(
                local(n),
                call(fr, vec![sub(local(n), i32c(1))]),
            ))));
            mb.define(fr, f);
            mb.export_func(fr, "main");
            mb.build().unwrap()
        },
        &[Value::I32(10)],
    );
    assert_eq!(ran, Ok(Some(55)));
}

// ------------------------------------------------------------------ lints

#[test]
fn exported_entry_unreachable_is_error() {
    let mut mb = ModuleBuilder::new("dead-entry");
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(Stmt::Unreachable);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(cm.analysis.has_errors());
    let d = cm
        .analysis
        .with_severity(Severity::Error)
        .next()
        .expect("error lint");
    assert!(d.message.contains("traps unconditionally"), "{}", d.message);
    assert_eq!(d.func, Some(0));
}

#[test]
fn dead_function_is_warning_not_error() {
    let mut mb = ModuleBuilder::new("dead-helper");
    let mut h = FuncBuilder::new(&[], Some(ValType::I32));
    h.push(ret(Some(i32c(1))));
    let _helper = mb.add_func("helper", h);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(i32c(2))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(!cm.analysis.has_errors());
    let warns: Vec<_> = cm.analysis.with_severity(Severity::Warn).collect();
    assert!(
        warns
            .iter()
            .any(|d| d.message.contains("unreachable from every export")),
        "{warns:?}"
    );
    assert!(!cm.analysis.funcs[0].reachable);
    assert!(cm.analysis.funcs[1].reachable);
}

#[test]
fn constant_div_by_zero_warns() {
    // Guarded by a data-dependent branch, so it is not an entry trap — but
    // the instruction itself is a guaranteed trap if it ever executes.
    let mut mb = ModuleBuilder::new("divz");
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = f.arg(0);
    f.push(if_(eqz(local(n)), vec![ret(Some(div(local(n), i32c(0))))]));
    f.push(ret(Some(local(n))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(!cm.analysis.has_errors());
    assert!(
        cm.analysis
            .with_severity(Severity::Warn)
            .any(|d| d.message.contains("division by zero")),
        "{:?}",
        cm.analysis.diagnostics
    );
}

#[test]
fn doomed_call_indirect_warns() {
    // Table has one entry; a constant index of 5 can only trap.
    let mut mb = ModuleBuilder::new("ci");
    let sig = mb.signature(&[], Some(ValType::I32));
    let mut t = FuncBuilder::new(&[], Some(ValType::I32));
    t.push(ret(Some(i32c(3))));
    let target = mb.add_func("target", t);
    mb.table(&[target]);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(call_indirect(&sig, i32c(5), vec![]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(
        cm.analysis
            .with_severity(Severity::Warn)
            .any(|d| d.message.contains("call_indirect")),
        "{:?}",
        cm.analysis.diagnostics
    );
}

#[test]
fn constant_oob_store_is_error() {
    // Memory is capped at one page; a store at 1 MiB can never be in
    // bounds, no matter how much the instance grows.
    let mut mb = ModuleBuilder::new("oob");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(store_i32(i32c(1 << 20), i32c(42)));
    f.push(ret(Some(i32c(0))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(cm.analysis.has_errors());
    let d = cm
        .analysis
        .with_severity(Severity::Error)
        .next()
        .expect("certain OOB");
    assert!(d.message.contains("out of bounds"), "{}", d.message);
    assert!(d.pc.is_some());
}

// ------------------------------------------------- pinned catalogue results

/// The 37 shipped guests (applications, then PolyBench kernels), by the name
/// they register under.
fn catalogue() -> Vec<(String, Module)> {
    let apps = sledge_apps::all_apps()
        .into_iter()
        .map(|a| (a.name.to_string(), (a.module)()));
    let kernels = sledge_apps::polybench::kernels()
        .into_iter()
        .map(|k| (format!("pb-{}", k.name), (k.build)()));
    apps.chain(kernels).collect()
}

/// Everything the analysis certifies about one module, one fact per line, in
/// a form that diffs line by line. Pass timings are left out: they are the
/// one field that is not a function of the bytes.
fn render_certificates(name: &str, cm: &awsm::CompiledModule) -> String {
    use std::fmt::Write;
    let a = &cm.analysis;
    let mut out = format!("== {name}\n");
    let _ = writeln!(out, "stack_bound {:?}", a.stack_bound);
    let _ = writeln!(out, "mem_sites {}", a.mem_sites);
    let _ = writeln!(out, "reset_policy(main) {:?}", cm.reset_policy("main"));
    for d in &a.diagnostics {
        let _ = writeln!(out, "diagnostic {d:?}");
    }
    let _ = writeln!(out, "effects.imports {:?}", a.effects.imports);
    for (i, f) in a.effects.funcs.iter().enumerate() {
        let _ = writeln!(out, "effects.func[{i}] {f:?}");
    }
    let c = &a.cost;
    let _ = writeln!(
        out,
        "cost max_check_gap={} max_gap={} checks={} splits={}",
        c.max_check_gap, c.max_gap, c.checks, c.splits
    );
    for (i, f) in c.funcs.iter().enumerate() {
        let _ = writeln!(out, "cost.func[{i}] {f:?}");
    }
    out
}

/// The certificates, lints and reset policies of the whole catalogue are
/// pinned, through both front ends — translation, and artifact decode of
/// what translation encoded: a speed-up of any analysis pass must reproduce
/// them bit for bit, and a change that moves them is a results change that
/// edits the snapshot in its own right. On a mismatch the current rendering
/// is written next to the test binaries, for review and copying over.
#[test]
fn catalogue_certificates_are_pinned() {
    let guests = catalogue();
    assert_eq!(guests.len(), 37, "the catalogue is 7 apps + 30 kernels");
    let translated: Vec<awsm::CompiledModule> = guests
        .iter()
        .map(|(_, m)| translate(m, Tier::Optimized).expect("shipped guest translates"))
        .collect();
    // The second front end: a node decoding the artifact a peer translated
    // derives every certificate itself, and must derive the same ones.
    let decoded: Vec<awsm::CompiledModule> = translated
        .iter()
        .map(|cm| decode_artifact(&encode_artifact(cm)).expect("shipped guest's artifact decodes"))
        .collect();
    for ((name, _), (t, d)) in guests.iter().zip(translated.iter().zip(&decoded)) {
        let untimed = |cm: &awsm::CompiledModule| AnalysisReport {
            timings: Vec::new(),
            ..cm.analysis.clone()
        };
        assert_eq!(
            untimed(t),
            untimed(d),
            "{name}: decode derived another report"
        );
    }
    let expected = include_str!("data/catalogue_certificates.txt");
    for (front_end, modules) in [("translate", &translated), ("artifact", &decoded)] {
        let actual: String = guests
            .iter()
            .zip(modules)
            .map(|((name, _), cm)| render_certificates(name, cm))
            .collect();
        if actual == expected {
            continue;
        }
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("catalogue_certificates.{front_end}.actual.txt"));
        std::fs::write(&path, &actual).expect("write the current rendering");
        let (line, (want, got)) = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .unwrap_or((
                expected.lines().count().min(actual.lines().count()),
                ("<end>", "<end>"),
            ));
        panic!(
            "certificates moved ({front_end}) at snapshot line {}:\n  pinned:  {want}\n  \
             current: {got}\nfull rendering: {}",
            line + 1,
            path.display()
        );
    }
}

/// The analyzer's sweep over the catalogue, with the gates a deployment
/// applies: every module's certificates within budget and no lint at all,
/// and no report that speaks of an optimizer or of elided checks (there is
/// one body per function). The shape of the executed body is checked
/// through the library: an op is 16 bytes (what the per-node memory
/// estimate assumes), and lowering never adds ops to a function.
#[test]
fn analyzer_sweep_over_the_catalogue_passes() {
    const MAX_CHECK_GAP: u32 = 512;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("analyzer-sweep");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the module directory");
    let guests = catalogue();
    let mut paths = Vec::new();
    for (name, m) in &guests {
        let path = dir.join(format!("{name}.wasm"));
        std::fs::write(&path, sledge_wasm::encode::encode_module(m)).expect("write module");
        paths.push(path);
    }

    let analyze = |flags: &[&str]| -> String {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_awsm-analyze"))
            .args(flags)
            .args(&paths)
            .output()
            .expect("run awsm-analyze");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        assert!(
            out.status.success(),
            "awsm-analyze {flags:?} failed ({}):\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    let gap = MAX_CHECK_GAP.to_string();
    let json = analyze(&[
        "--deny-warnings",
        "--effects",
        "--max-stack-bytes",
        "1048576",
        "--max-check-gap",
        &gap,
        "--json",
    ]);
    assert_eq!(
        json.lines().count(),
        guests.len(),
        "one JSON object per module"
    );
    for bad in ["\"within_budget\":false", "\"failed\":true"] {
        assert!(!json.contains(bad), "a module reports {bad}:\n{json}");
    }
    let text = analyze(&[]);
    // The tier changes nothing the analyzer computes, so it takes none.
    let tiered = std::process::Command::new(env!("CARGO_BIN_EXE_awsm-analyze"))
        .args(["--tier", "aot-naive"])
        .args(&paths)
        .output()
        .expect("run awsm-analyze");
    assert_eq!(tiered.status.code(), Some(2), "--tier is a usage error");
    for report in [&json, &text] {
        let lower = report.to_lowercase();
        for word in ["\"opt\"", "optimis", "optimiz", "elided", "elision"] {
            assert!(!lower.contains(word), "a report mentions {word}");
        }
    }

    assert_eq!(awsm::LOWERED_OP_BYTES, 16);
    let opts = awsm::TranslateOptions {
        max_check_gap: MAX_CHECK_GAP,
    };
    for (name, m) in &guests {
        let cm = awsm::translate_with(m, Tier::Optimized, opts).expect("translate");
        for (i, f) in cm.funcs.iter().enumerate() {
            let lowered = cm.lowered_ops(i).expect("every function is lowered");
            assert!(
                0 < lowered && lowered <= f.code.len(),
                "{name} func {i}: {} ops lowered to {lowered}",
                f.code.len()
            );
        }
    }
}

// --------------------------------------------- artifact decode on peer bytes

/// FNV-1a 64, the artifact's payload checksum: what a peer that edits an
/// artifact recomputes so the edit reaches the parser.
fn sealed(mut artifact: Vec<u8>) -> Vec<u8> {
    let sum = artifact[16..]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    artifact[8..16].copy_from_slice(&sum.to_le_bytes());
    artifact
}

/// Rewrite one operand of `op`: an index or offset to a small or a wild
/// value, a constant to any value, or a branch's target (within a body of
/// `len` ops), kept height or carried value.
fn rewrite_operand(op: &mut awsm::Op, len: usize, rng: &mut Rng) {
    use awsm::code::Branch;
    use awsm::Op;
    let v = if rng.flip() {
        rng.range(0, 8) as u32
    } else {
        rng.next_u64() as u32
    };
    let branch = |b: &mut Branch, rng: &mut Rng| match rng.index(0, 3) {
        0 => b.target = rng.index(0, len) as u32,
        1 => b.height = v,
        _ => b.keep = !b.keep,
    };
    match op {
        Op::Br(b) | Op::BrIf(b) | Op::BrIfZ(b) => branch(b, rng),
        Op::BrTable(p) => {
            let i = rng.index(0, p.targets.len() + 1);
            branch(p.targets.get_mut(i).unwrap_or(&mut p.default), rng)
        }
        Op::Call(i)
        | Op::CallHost(i)
        | Op::CallIndirect(i)
        | Op::LocalGet(i)
        | Op::LocalSet(i)
        | Op::LocalTee(i)
        | Op::GlobalGet(i)
        | Op::GlobalSet(i)
        | Op::Load(_, i)
        | Op::Store(_, i) => *i = v,
        Op::Const(c) => *c = rng.next_u64(),
        _ => {}
    }
}

/// A store to a constant address before any load, in a module whose data
/// segment gives it a memory template.
fn scratch_store() -> Module {
    let mut mb = ModuleBuilder::new("scratch-store");
    mb.memory(1, Some(1));
    mb.data(0, b"seed".to_vec());
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.extend([store_i32(i32c(16), i32c(5)), ret(Some(i32c(0)))]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

/// An indirect call through a table, of the type a host import also has.
fn indirect_poke() -> Module {
    let mut mb = ModuleBuilder::new("indirect-poke");
    mb.import_func("env", "poke", &[ValType::I32], None);
    let sig = mb.signature(&[ValType::I32], None);
    let leaf = mb.add_func("leaf", FuncBuilder::new(&[ValType::I32], None));
    mb.table(&[leaf]);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.extend([
        exec(call_indirect(&sig, i32c(0), vec![i32c(1)])),
        ret(Some(i32c(0))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

/// The `.wasm` front end is total on hostile bytes: over every catalogue
/// module, a flipped bit, a rewritten byte or a truncation goes through
/// decode, translation (validation and the whole analysis), instantiation
/// and a fuel-capped run, and each stage returns `Ok` or `Err`, never a
/// panic.
#[test]
fn wasm_front_end_is_total_on_mutated_modules() {
    for (i, (_, module)) in catalogue().iter().enumerate() {
        let honest = sledge_wasm::encode::encode_module(module);
        cases(24, 0x3A5D_7E11 + i as u64, |rng| {
            let mut bytes = honest.clone();
            match rng.index(0, 3) {
                0 => bytes[rng.index(8, honest.len())] ^= 1 << rng.index(0, 8),
                1 => bytes[rng.index(8, honest.len())] = rng.range(0, 256) as u8,
                _ => bytes.truncate(rng.index(8, honest.len())),
            }
            let Ok(m) = sledge_wasm::decode::decode_module(&bytes) else {
                return;
            };
            let Ok(cm) = translate(&m, Tier::Optimized) else {
                return;
            };
            let Ok(mut inst) = Instance::new(Arc::new(cm), EngineConfig::default()) else {
                return;
            };
            if inst.invoke_export("main", &[]).is_ok() {
                let _ = inst.run(&mut NullHost, 200_000);
            }
        });
    }
}

/// Artifact decode runs the whole analysis on bytes from the network, so it
/// must be total: over every catalogue artifact, a flipped payload bit, a
/// rewritten op operand (both with the checksum fixed up) and a truncation
/// each decode to `Ok` or `Err`, never a panic.
#[test]
fn artifact_decode_is_total_on_peer_bytes() {
    let guests = catalogue();

    // Fixed cases, each an edit the byte-level mutations rarely reach: a
    // table entry past the functions (the call graph indexes by it), a
    // frame the analysis would have to allocate 2^32 locals for, a wild
    // constant store address in a module with a memory template, and an
    // import whose arity an indirect call of its type would overflow.
    type Edit = fn(&mut awsm::CompiledModule);
    let fixed: [(&Module, Edit); 4] = [
        (&guests[0].1, |m| {
            m.table.push(Some(m.num_imports() + m.funcs.len() as u32))
        }),
        (&guests[0].1, |m| {
            let f = &mut m.funcs[0];
            (f.nparams, f.nlocals) = (u32::MAX, u32::MAX);
        }),
        (&scratch_store(), |m| {
            let code = &mut m.funcs[0].code;
            let at = code.iter().position(|op| matches!(op, awsm::Op::Const(16)));
            code[at.expect("the store's address constant")] = awsm::Op::Const(u64::MAX);
        }),
        (&indirect_poke(), |m| m.host_funcs[0].nparams = u32::MAX),
    ];
    for (module, edit) in fixed {
        let mut m = translate(module, Tier::Optimized).unwrap();
        edit(&mut m);
        let _ = decode_artifact(&encode_artifact(&m));
    }

    for (i, (_, module)) in guests.iter().enumerate() {
        let honest = encode_artifact(&translate(module, Tier::Optimized).unwrap());
        cases(24, 0xA27F_AC75 + i as u64, |rng| {
            let peer = match rng.index(0, 3) {
                0 => {
                    let mut bytes = honest.clone();
                    let at = rng.index(16, bytes.len());
                    bytes[at] ^= 1 << rng.index(0, 8);
                    sealed(bytes)
                }
                1 => {
                    let mut m = decode_artifact(&honest).expect("honest artifact decodes");
                    let f = rng.index(0, m.funcs.len());
                    let code = &mut m.funcs[f].code;
                    let pc = rng.index(0, code.len());
                    let len = code.len();
                    rewrite_operand(&mut code[pc], len, rng);
                    encode_artifact(&m)
                }
                _ => sealed(honest[..rng.index(16, honest.len())].to_vec()),
            };
            let _ = decode_artifact(&peer);
        });
    }
}
