//! Where the executor's dispatch block lies in a built binary, and whether
//! it crosses a 64-byte cache line.
//!
//! Usage: `dispatch_block <binary>`
//!
//! The dispatch block — load the opcode, range-check it, step `ip`, load
//! `a b c`, read the jump table, `jmp *reg` — runs once per guest op, and
//! where it straddles a 64-byte line every guest runs about 20 % slower.
//! In each instantiation of `awsm::exec::run` in `<binary>` (found with
//! `nm`, disassembled with `objdump`, x86-64 only) this finds the
//! straight-line block that ends in its first indirect jump; where a
//! backward branch targets it, it is the dispatch loop's head, which the
//! workspace's `-align-loops=64` places, and this prints one line:
//!
//! ```text
//! <run start> <block start> <block end> <one-line|crosses>
//! ```
//!
//! addresses in hex, the end exclusive. The engine has one executor, so it
//! then exits 1 unless the binary holds exactly one instantiation of `run`
//! and that one dispatches at a loop head: a second instantiation would be
//! a second copy of the dispatch loop, placed by nothing.
//! `crates/bench/tests/binaries.rs` and `crates/bench/layout_pairs.sh` both
//! read this output.

use std::process::Command;

fn tool(cmd: &str, args: &[String], binary: &str) -> String {
    let out = Command::new(cmd)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{cmd} (binutils) is needed to read {binary}: {e}"));
    assert!(out.status.success(), "{cmd} {args:?} failed");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, binary] = &args[..] else {
        eprintln!("usage: dispatch_block <binary>");
        std::process::exit(2);
    };
    let symbols = tool("nm", &["-S".into(), "-C".into(), binary.clone()], binary);
    let runs: Vec<(u64, u64)> = symbols
        .lines()
        .filter(|l| l.ends_with(" awsm::exec::run"))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((hex(f.next()?)?, hex(f.next()?)?))
        })
        .collect();
    let mut heads = 0;
    for &(start, size) in &runs {
        let args = [
            "-d".to_string(),
            "--no-show-raw-insn".into(),
            format!("--start-address={start:#x}"),
            format!("--stop-address={:#x}", start + size),
            binary.clone(),
        ];
        // (address, mnemonic, first operand) of every instruction.
        let listing = tool("objdump", &args, binary);
        let insns: Vec<(u64, &str, &str)> = listing
            .lines()
            .filter_map(|l| {
                let (addr, text) = l.trim_start().split_once(":\t")?;
                let mut f = text.split_whitespace();
                Some((hex(addr)?, f.next()?, f.next().unwrap_or("")))
            })
            .collect();
        let Some(jmp) = insns
            .iter()
            .position(|&(_, m, op)| m == "jmp" && op.starts_with("*%"))
        else {
            panic!("run at {start:#x}: no indirect jump");
        };
        let end = insns.get(jmp + 1).map_or(start + size, |i| i.0);
        // Direct branches: (from, to).
        let branches: Vec<(u64, u64)> = insns
            .iter()
            .filter(|(_, m, _)| m.starts_with('j'))
            .filter_map(|&(at, _, op)| Some((at, hex(op)?)))
            .collect();
        let block = branches
            .iter()
            .map(|&(_, to)| to)
            .filter(|&to| to <= insns[jmp].0)
            .max()
            .unwrap_or(start);
        if !branches
            .iter()
            .any(|&(from, to)| to == block && from > block)
        {
            continue;
        }
        heads += 1;
        let fits = if block / 64 == (end - 1) / 64 {
            "one-line"
        } else {
            "crosses"
        };
        println!("{start:#x} {block:#x} {end:#x} {fits}");
    }
    if (runs.len(), heads) != (1, 1) {
        eprintln!(
            "{binary}: {} instantiations of awsm::exec::run, {heads} dispatching at a loop head; \
             the engine has one executor",
            runs.len()
        );
        std::process::exit(1);
    }
}
