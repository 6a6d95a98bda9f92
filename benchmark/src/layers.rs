//! Per-layer metrics that need no socket: each times calls into one crate's
//! public functions, on the same guests and bodies the workloads use.

use crate::ledger::{Ledger, MANY};
use crate::rng::Rng;
use crate::stack::{self, Guest, Workload};
use crate::stats::percentile_of;
use crate::trace::SpanId;
use awsm::{CompiledModule, EngineConfig, Instance, StepResult};
use sledge_apps::testutil::BufferHost;
use sledge_core::RuntimeConfig;
use std::sync::Arc;

fn p50_us(ns: &[u64]) -> f64 {
    percentile_of(ns, 0.5) as f64 / 1e3
}

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

/// The engine configuration a default node gives its sandboxes.
fn engine() -> EngineConfig {
    let node = RuntimeConfig::default();
    EngineConfig {
        bounds: node.bounds,
        tier: node.tier,
        ..Default::default()
    }
}

fn translate(module: &sledge_wasm::module::Module) -> CompiledModule {
    awsm::translate_with(
        module,
        RuntimeConfig::default().tier,
        awsm::TranslateOptions::default(),
    )
    .expect("catalogue guests translate")
}

fn compile(wasm: &[u8]) -> Arc<CompiledModule> {
    let module = sledge_wasm::decode::decode_module(wasm).expect("catalogue guests decode");
    Arc::new(translate(&module))
}

/// Load path, over the whole catalogue: decode, validate, translate (with its
/// analyses, optimizer and certificates), artifact encode and decode. Each is
/// the sum of per-guest medians over the summed KiB.
pub fn load_path(ledger: &mut Ledger, parent: Option<SpanId>, guests: &[Guest]) {
    const CALLS: usize = 3;
    let wasm_kib: f64 = guests.iter().map(|g| kib(g.wasm.len())).sum();
    let (mut decode, mut validate, mut xlate, mut encode, mut redecode) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut artifact_kib = 0.0;
    for g in guests {
        let tag = |stage: &str| format!("{stage}.{}", g.name);
        let module = sledge_wasm::decode::decode_module(&g.wasm).expect("catalogue guests decode");
        let compiled = translate(&module);
        let artifact = awsm::encode_artifact(&compiled);
        artifact_kib += kib(artifact.len());

        let none = || ();
        decode += p50_us(
            &ledger.time_calls(&tag("wasm.decode"), parent, CALLS, none, |()| {
                sledge_wasm::decode::decode_module(&g.wasm)
            }),
        );
        validate += p50_us(
            &ledger.time_calls(&tag("wasm.validate"), parent, CALLS, none, |()| {
                sledge_wasm::validate::validate_module(&module)
            }),
        );
        xlate += p50_us(
            &ledger.time_calls(&tag("awsm.translate"), parent, CALLS, none, |()| {
                translate(&module)
            }),
        );
        encode +=
            p50_us(
                &ledger.time_calls(&tag("awsm.artifact_encode"), parent, CALLS, none, |()| {
                    awsm::encode_artifact(&compiled)
                }),
            );
        redecode +=
            p50_us(
                &ledger.time_calls(&tag("awsm.artifact_decode"), parent, CALLS, none, |()| {
                    awsm::decode_artifact(&artifact)
                }),
            );
    }
    ledger.put("wasm.decode_us_per_kib", decode / wasm_kib, "us/KiB");
    ledger.put("wasm.validate_us_per_kib", validate / wasm_kib, "us/KiB");
    ledger.put("awsm.translate_us_per_kib", xlate / wasm_kib, "us/KiB");
    ledger.put(
        "awsm.artifact_encode_us_per_kib",
        encode / artifact_kib,
        "us/KiB",
    );
    ledger.put(
        "awsm.artifact_decode_us_per_kib",
        redecode / artifact_kib,
        "us/KiB",
    );
}

/// Run a started invocation to completion; the instance comes back idle.
fn run_to_completion(
    mut inst: Instance,
    mut host: BufferHost,
    label: &str,
) -> (Instance, BufferHost) {
    loop {
        match inst.run(&mut host, u64::MAX) {
            StepResult::Complete(_) => return (inst, host),
            StepResult::Trapped(t) => panic!("{label} trapped: {t}"),
            _ => {}
        }
    }
}

fn start(compiled: &Arc<CompiledModule>, body: &[u8]) -> (Instance, BufferHost) {
    let mut inst =
        Instance::new(Arc::clone(compiled), engine()).expect("catalogue guests instantiate");
    inst.invoke_export("main", &[]).expect("main is exported");
    (inst, BufferHost::new(body))
}

/// Time `main` run to completion on `body`, from a fresh instance each call.
/// Returns the run times and the fuel one run burns. Panics unless every
/// response equals `expected` and every run burns the same fuel: the count is
/// only worth reporting if it repeats exactly.
fn time_exec(
    ledger: &mut Ledger,
    parent: Option<SpanId>,
    label: &str,
    max_calls: usize,
    compiled: &Arc<CompiledModule>,
    body: &[u8],
    expected: &[u8],
) -> (Vec<u64>, u64) {
    let mut fuel = None;
    let ns = ledger.time_calls(
        &format!("awsm.exec.{label}"),
        parent,
        max_calls,
        || start(compiled, body),
        |(inst, host)| {
            let (inst, host) = run_to_completion(inst, host, label);
            assert!(
                host.response == expected,
                "{label}: guest and native twin disagree"
            );
            let used = inst.fuel_used();
            assert_eq!(
                *fuel.get_or_insert(used),
                used,
                "{label}: fuel varies between runs"
            );
            inst
        },
    );
    (ns, fuel.expect("at least one run"))
}

/// Engine metrics for the seven applications: the three a workload invokes
/// run on that workload's seeded body, the rest on their sample input.
pub fn applications(ledger: &mut Ledger, parent: Option<SpanId>, guests: &[Guest], seed: u64) {
    let seeded = |w: Workload| stack::request_body(w, &mut Rng::new(seed));
    for (label, guest, body) in [
        ("ping", "ping", seeded(Workload::Ping)),
        ("echo64k", "echo", seeded(Workload::Echo64k)),
        ("gps_ekf", "gps_ekf", sledge_apps::gps_ekf::sample_input()),
        ("gocr", "gocr", sledge_apps::gocr::sample_input()),
        ("cifar10", "cifar10", seeded(Workload::Cifar10)),
        ("resize", "resize", sledge_apps::resize::sample_input()),
        ("lpd", "lpd", sledge_apps::lpd::sample_input()),
    ] {
        let g = guests
            .iter()
            .find(|g| g.name == guest)
            .expect("application is in the catalogue");
        let native = g.native.expect("applications have a native twin");
        let expected = native(&body);
        let compiled = compile(&g.wasm);

        let native_ns = ledger.time_calls(
            &format!("native.{label}"),
            parent,
            MANY,
            || (),
            |()| native(&body),
        );
        let (exec_ns, fuel) = time_exec(ledger, parent, label, MANY, &compiled, &body, &expected);
        let exec_us = p50_us(&exec_ns);
        ledger.put(format!("awsm.exec_us.{label}"), exec_us, "us");
        // Base: the native twin's median on the same body. A no-op twin can
        // time as 0 ns; a nanosecond floor keeps the ratio finite.
        ledger.put(
            format!("awsm.exec_x_native.{label}"),
            exec_us / p50_us(&native_ns).max(1e-3),
            "x",
        );
        ledger.put(format!("awsm.fuel_per_req.{label}"), fuel as f64, "count");

        if matches!(label, "ping" | "echo64k" | "cifar10") {
            let ns = ledger.time_calls(
                &format!("awsm.instantiate.{label}"),
                parent,
                MANY,
                || (),
                |()| Instance::new(Arc::clone(&compiled), engine()),
            );
            ledger.put(format!("awsm.instantiate_us.{label}"), p50_us(&ns), "us");
        }
        if label == "cifar10" {
            // What a warm pool pays to recycle a sandbox that has just run.
            let policy = compiled.reset_policy("main");
            let ns = ledger.time_calls(
                "awsm.reset.cifar10",
                parent,
                MANY,
                || {
                    let (inst, host) = start(&compiled, &body);
                    run_to_completion(inst, host, label).0
                },
                |mut inst| {
                    inst.reset_with(policy).expect("an idle instance resets");
                    inst
                },
            );
            ledger.put(
                "awsm.reset_ns.cifar10",
                percentile_of(&ns, 0.5) as f64,
                "ns",
            );
        }
    }
}

/// The 30 PolyBench kernels: median run time each, and the geometric mean of
/// their slowdowns over the native twin.
pub fn polybench(ledger: &mut Ledger, parent: Option<SpanId>, guests: &[Guest]) {
    let kernels = sledge_apps::polybench::kernels();
    let mut log_sum = 0.0;
    for k in &kernels {
        let g = guests
            .iter()
            .find(|g| g.name == format!("pb-{}", k.name))
            .expect("kernel is in the catalogue");
        let expected = (k.native)().to_le_bytes();
        let native_ns = ledger.time_calls(
            &format!("native.pb.{}", k.name),
            parent,
            20,
            || (),
            |()| (k.native)(),
        );
        let label = format!("pb.{}", k.name);
        let (exec_ns, _) = time_exec(ledger, parent, &label, 5, &compile(&g.wasm), &[], &expected);
        let us = p50_us(&exec_ns);
        ledger.put(format!("awsm.pb_us.{}", k.name), us, "us");
        log_sum += (us / p50_us(&native_ns).max(1e-3)).ln();
    }
    ledger.put(
        "awsm.pb_geomean_x_native",
        (log_sum / kernels.len() as f64).exp(),
        "x",
    );
}

/// `http`: parse one request of each size off a connection's parser, and
/// serialize the reply each gets.
pub fn http(ledger: &mut Ledger, parent: Option<SpanId>, seed: u64) {
    for (label, w) in [("ping", Workload::Ping), ("echo64k", Workload::Echo64k)] {
        let body = stack::request_body(w, &mut Rng::new(seed));
        let wire = sledge_http::format_request("POST", "/t00-guest", &[], &body);
        let mut parser = sledge_http::RequestParser::new(RuntimeConfig::default().max_request_size);
        let batch = if body.is_empty() { 200 } else { 4 };
        let parse =
            ledger.time_batches(
                &format!("http.parse.{label}"),
                parent,
                batch,
                || match parser.feed(&wire) {
                    Ok(sledge_http::ParseStatus::Complete(req)) => {
                        assert_eq!(req.body.len(), body.len())
                    }
                    other => panic!("request did not parse: {other:?}"),
                },
            );
        ledger.put(format!("http.parse_ns.{label}"), parse, "ns");

        // The reply's body is the worker's to give away, so making it is not
        // part of the call.
        let reply = if body.is_empty() { vec![b'.'] } else { body };
        let ns = ledger.time_calls(
            &format!("http.response.{label}"),
            parent,
            MANY,
            || reply.clone(),
            |body| sledge_http::Response::ok(body).to_bytes(),
        );
        ledger.put(
            format!("http.response_ns.{label}"),
            percentile_of(&ns, 0.5) as f64,
            "ns",
        );
    }
}

/// `deque`: the owner's push+pop, and a thief's steal, uncontended — the
/// floor under the hand-off the listener and workers make.
pub fn deque(ledger: &mut Ledger, parent: Option<SpanId>) {
    const BATCH: usize = 1000;
    let (worker, stealer) = sledge_deque::deque::<usize>();
    let push_pop = ledger.time_batches("deque.push_pop", parent, BATCH, || {
        worker.push(7);
        std::hint::black_box(worker.pop());
    });
    ledger.put("deque.push_pop_ns", push_pop, "ns");
    let ns = ledger.time_calls(
        &format!("deque.steal x{BATCH}"),
        parent,
        MANY,
        || (0..BATCH).for_each(|i| worker.push(i)),
        |()| (0..BATCH).for_each(|_| assert!(stealer.steal().is_some())),
    );
    ledger.put(
        "deque.steal_ns",
        percentile_of(&ns, 0.5) as f64 / BATCH as f64,
        "ns",
    );
}

/// `cluster`: owner-plus-one-replica lookup on a 16-node, 64-vnode ring, over
/// the ping routes the catalogue registers.
pub fn ring(ledger: &mut Ledger, parent: Option<SpanId>) {
    let mut ring = sledge_cluster::HashRing::new(sledge_cluster::RouterConfig::default().seed, 64);
    for i in 0..16 {
        ring.add(&format!("node-{i}"));
    }
    let routes: Vec<String> = (0..stack::TENANTS)
        .map(|t| format!("/{}", stack::function_name(t, "ping")))
        .collect();
    let mut i = 0;
    let lookup = ledger.time_batches("cluster.ring_lookup", parent, 1000, || {
        i += 1;
        std::hint::black_box(ring.replicas(&routes[i % routes.len()], 2));
    });
    ledger.put("cluster.ring_lookup_ns", lookup, "ns");
}
