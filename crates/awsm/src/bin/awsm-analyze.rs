//! `awsm-analyze`: run the load-time static analyzer over `.wasm` modules
//! and print the report — stack bounds, per-function cost tables with preemption-latency certificates, and
//! lints — without instantiating anything.
//!
//! ```text
//! awsm-analyze [--deny-warnings] [--max-stack-bytes N] [--max-check-gap N]
//!              [--effects] [--allow-hostcall NAME]... [--json] <module.wasm>...
//! ```
//!
//! `--max-check-gap N` both *instruments* (the cost pass inserts extra
//! budget checks until every check-free path costs at most `N` units, so
//! the certificate holds by construction) and *verifies* (the verdict
//! fails if the certified gap still exceeds `N`, which only happens when
//! a single opcode outweighs the budget).
//!
//! `--effects` appends the effect certificate to the human-readable
//! report: per-function reachable host-call sets and memory effects
//! (`writes-memory` when a store is reachable, `may-grow` when a
//! `memory.grow` is, `pure` when neither is). `--allow-hostcall NAME` (repeatable; `NAME` is either a
//! bare field name or qualified `module::name`) enforces a deny-by-default
//! capability policy against *every* exported function — any export
//! reaching an ungranted host call fails the module, exactly as the
//! runtime's registry gate would.
//!
//! `--json` emits one JSON object per module on stdout instead of the
//! human-readable report; diagnostics still go to stderr. The object
//! always carries the full `"cost"` and `"effects"` certificates.
//!
//! Exit status is non-zero when any module carries an error-severity
//! diagnostic, exceeds the stack budget (if one was given), exceeds the
//! check-gap budget (if one was given), violates the capability policy
//! (if one was given), or — under `--deny-warnings` — produces any warning
//! at all.

use awsm::{AnalysisReport, Severity, StackBound, Tier, TranslateOptions};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Options {
    deny_warnings: bool,
    max_stack_bytes: Option<u64>,
    max_check_gap: Option<u32>,
    effects: bool,
    allow_hostcalls: Vec<String>,
    json: bool,
    paths: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: awsm-analyze [--deny-warnings] [--max-stack-bytes N] \
         [--max-check-gap N] [--effects] [--allow-hostcall NAME]... [--json] \
         <module.wasm>..."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        deny_warnings: false,
        max_stack_bytes: None,
        max_check_gap: None,
        effects: false,
        allow_hostcalls: Vec::new(),
        json: false,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny-warnings" => opts.deny_warnings = true,
            "--effects" => opts.effects = true,
            "--allow-hostcall" => {
                let Some(v) = args.next().filter(|v| !v.is_empty()) else {
                    usage();
                };
                opts.allow_hostcalls.push(v);
            }
            "--json" => opts.json = true,
            "--max-stack-bytes" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                opts.max_stack_bytes = Some(v);
            }
            "--max-check-gap" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                opts.max_check_gap = Some(v);
            }
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => usage(),
            _ => opts.paths.push(a),
        }
    }
    if opts.paths.is_empty() {
        usage();
    }
    opts
}

/// Whether the report fails under the given policy, with any extra
/// diagnostics the policy adds (the stack-budget, check-gap, and
/// capability checks).
fn verdict(compiled: &awsm::CompiledModule, opts: &Options) -> (bool, Vec<String>) {
    let report = &compiled.analysis;
    let mut extra = Vec::new();
    let mut failed = report.has_errors();
    if let Some(budget) = opts.max_stack_bytes {
        if let Some(d) = report.check_stack(budget) {
            extra.push(format!("  {d}"));
            failed = true;
        }
    }
    if let Some(budget) = opts.max_check_gap {
        if let Some(d) = report.check_gap(budget) {
            extra.push(format!("  {d}"));
            failed = true;
        }
    }
    // Deny-by-default capability policy: every export is an entry point a
    // deployment could name, so each one must stay within the grant set —
    // the same closure the registry enforces per configured entry.
    if !opts.allow_hostcalls.is_empty() {
        let mut exports: Vec<(&String, &u32)> = compiled.exports.iter().collect();
        exports.sort();
        let effects = &report.effects;
        let mut warned = false;
        for (name, &idx) in exports {
            if let Some(d) = effects.check_hostcalls(idx, &opts.allow_hostcalls) {
                extra.push(format!("  export {name:?}: {d}"));
                failed = true;
            } else if let Some(d) = effects.unused_grants(idx, &opts.allow_hostcalls) {
                extra.push(format!("  export {name:?}: {d}"));
                warned = true;
            }
        }
        if opts.deny_warnings && warned {
            failed = true;
        }
    }
    if opts.deny_warnings && report.with_severity(Severity::Warn).next().is_some() {
        failed = true;
    }
    (failed, extra)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One JSON object per module: identity, stack bound, cost certificate
/// (module-wide and per function), effect certificate, diagnostics count,
/// and the verdict.
fn render_json(
    name: &str,
    compiled: &awsm::CompiledModule,
    opts: &Options,
    failed: bool,
) -> String {
    let report = &compiled.analysis;
    let mut out = String::new();
    let _ = write!(out, "{{\"module\":{}", json_str(name));
    match &report.stack_bound {
        StackBound::Bounded(b) => {
            let _ = write!(out, ",\"stack_bound\":{b}");
        }
        StackBound::Unbounded { .. } => out.push_str(",\"stack_bound\":null"),
    }
    let _ = write!(
        out,
        ",\"mem_sites\":{},\"errors\":{},\"warnings\":{}",
        report.mem_sites,
        report.with_severity(Severity::Error).count(),
        report.with_severity(Severity::Warn).count(),
    );
    let cost = &report.cost;
    let _ = write!(
        out,
        ",\"cost\":{{\"max_check_gap\":{},\"max_gap\":{},\"checks\":{},\"splits\":{}",
        cost.max_check_gap, cost.max_gap, cost.checks, cost.splits
    );
    if let Some(budget) = opts.max_check_gap {
        let _ = write!(out, ",\"within_budget\":{}", cost.within(budget));
    }
    out.push_str(",\"funcs\":[");
    for (i, f) in cost.funcs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = f.name.as_deref().unwrap_or("");
        let _ = write!(
            out,
            "{{\"name\":{},\"blocks\":{},\"checks\":{},\"splits\":{},\
             \"total_cost\":{},\"max_gap\":{},\"max_loop_gap\":{},\"max_host_gap\":{}}}",
            json_str(name),
            f.blocks,
            f.checks,
            f.splits,
            f.total_cost,
            f.max_gap,
            f.max_loop_gap,
            f.max_host_gap
        );
    }
    out.push_str("]}");
    let eff = &report.effects;
    out.push_str(",\"effects\":{\"imports\":[");
    for (i, name) in eff.imports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(name));
    }
    out.push_str("],\"funcs\":[");
    for (i, f) in eff.funcs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"hostcalls\":[",
            json_str(f.name.as_deref().unwrap_or(""))
        );
        for (j, &h) in f.hostcalls.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let qname = eff.imports.get(h as usize).map(String::as_str);
            out.push_str(&json_str(qname.unwrap_or("?")));
        }
        let _ = write!(
            out,
            "],\"writes_memory\":{},\"may_grow\":{},\"writes_globals\":{},\"pure\":{}}}",
            f.writes_memory, f.may_grow, f.writes_globals, f.pure
        );
    }
    out.push_str("]}");
    // Stack body → executed body, per function (lowering never adds ops).
    let _ = write!(
        out,
        ",\"lowered\":{{\"op_bytes\":{},\"funcs\":[",
        awsm::LOWERED_OP_BYTES
    );
    for (i, f) in compiled.funcs.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let lowered = compiled.lowered_ops(i).unwrap_or(0);
        let _ = write!(
            out,
            "{sep}{{\"ops\":{},\"lowered_ops\":{lowered}}}",
            f.code.len()
        );
    }
    let _ = write!(out, "]}},\"failed\":{failed}}}");
    out
}

/// Human-readable effect-certificate section (printed under `--effects`).
fn render_effects(report: &AnalysisReport) -> String {
    let mut out = String::from("effects:\n");
    let eff = &report.effects;
    if eff.imports.is_empty() {
        out.push_str("  imports: none\n");
    } else {
        let _ = writeln!(out, "  imports: {}", eff.imports.join(", "));
    }
    for (i, f) in eff.funcs.iter().enumerate() {
        let name = f.name.clone().unwrap_or_else(|| format!("func[{i}]"));
        let hostcalls: Vec<&str> = f
            .hostcalls
            .iter()
            .filter_map(|&h| eff.imports.get(h as usize).map(String::as_str))
            .collect();
        let _ = write!(out, "  {name}: hostcalls [{}]", hostcalls.join(", "));
        if f.writes_memory {
            out.push_str(", writes-memory");
        }
        if f.may_grow {
            out.push_str(", may-grow");
        }
        if f.writes_globals {
            out.push_str(", writes-globals");
        }
        if f.pure {
            out.push_str(", pure");
        }
        out.push('\n');
    }
    out
}

fn main() -> ExitCode {
    let opts = parse_args();
    let translate_opts = TranslateOptions {
        max_check_gap: opts.max_check_gap.unwrap_or(awsm::DEFAULT_MAX_CHECK_GAP),
    };
    let mut any_failed = false;
    for path in &opts.paths {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: {e}");
                any_failed = true;
                continue;
            }
        };
        let module = match sledge_wasm::decode::decode_module(&bytes) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{path}: decode error: {e}");
                any_failed = true;
                continue;
            }
        };
        let compiled = match awsm::translate_with(&module, Tier::default(), translate_opts) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{path}: translation error: {e}");
                any_failed = true;
                continue;
            }
        };
        let name = compiled.name.as_deref().unwrap_or(path);
        let (failed, extra) = verdict(&compiled, &opts);
        if opts.json {
            println!("{}", render_json(name, &compiled, &opts, failed));
            for line in &extra {
                eprintln!("{}", line.trim_start());
            }
        } else {
            print!("{}", compiled.analysis.render(name));
            // Stack body → the register form derived from it, per function.
            for (i, f) in compiled.funcs.iter().enumerate() {
                let lowered = compiled.lowered_ops(i).unwrap_or(0);
                println!("  func {i:>3} ops {} → {lowered} lowered", f.code.len());
            }
            if opts.effects {
                print!("{}", render_effects(&compiled.analysis));
            }
            for line in extra {
                println!("{line}");
            }
        }
        if failed {
            any_failed = true;
        }
    }
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
