//! Invocation-lifecycle metrics: per-phase latency shards, the node
//! snapshot [`LatencyReport`], and the `/metrics` (Prometheus text), `/stats`
//! (JSON) and summary-line renderings of it.
//!
//! Every completed invocation is decomposed into phases (queue wait,
//! instantiation, pure execution, preempted time, blocked time, end-to-end
//! total) and recorded into one [`PhaseHistograms`] *shard*. Each worker
//! owns a private shard per key (one global, one per function), so the hot
//! path touches only cache lines no other worker writes; readers merge
//! shard snapshots on demand. A function's shards are allocated by its
//! first recorded sample, so a registered function that never runs costs
//! no shard memory, and the snapshot copies phases only for the functions
//! that have run: its cost grows with what runs, not with what is
//! registered.
//!
//! The renderers read only the report and never ask which subsystems are
//! on: every section and series is always present, reading zero when its
//! subsystem is off. The one exception is `budget_balance`, which exists
//! only for a function that has a work budget.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::pool::PoolStatsSnapshot;
use crate::sandbox::Timings;
use crate::stats::{FunctionStatsSnapshot, RegistryStatsSnapshot, StatsSnapshot};
use crate::Shared;
use sledge_http::ConnSnapshot;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};

/// The lifecycle phases a latency sample is split into, in render order.
pub(crate) const PHASES: [&str; 6] = [
    "queue",
    "instantiation",
    "execution",
    "preempted",
    "blocked",
    "total",
];

/// One shard of per-phase histograms (one per worker per key).
#[derive(Debug, Default)]
pub struct PhaseHistograms {
    /// Enqueue → first dispatch on a worker.
    pub queue: Histogram,
    /// Sandbox allocation on the listener.
    pub instantiation: Histogram,
    /// Accumulated guest execution.
    pub execution: Histogram,
    /// Time parked on the runqueue after preemption.
    pub preempted: Histogram,
    /// Time parked on the I/O wait list (includes wake → redispatch).
    pub blocked: Histogram,
    /// Arrival → completion delivery.
    pub total: Histogram,
}

impl PhaseHistograms {
    /// Record one finished invocation's phase breakdown.
    #[inline]
    pub fn record(&self, t: &Timings) {
        self.queue.record(t.queue_delay.as_nanos() as u64);
        self.instantiation.record(t.instantiation.as_nanos() as u64);
        self.execution.record(t.execution.as_nanos() as u64);
        self.preempted.record(t.preempted.as_nanos() as u64);
        self.blocked.record(t.blocked.as_nanos() as u64);
        self.total.record(t.total.as_nanos() as u64);
    }

    /// Point-in-time copy of all phases.
    pub(crate) fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            queue: self.queue.snapshot(),
            instantiation: self.instantiation.snapshot(),
            execution: self.execution.snapshot(),
            preempted: self.preempted.snapshot(),
            blocked: self.blocked.snapshot(),
            total: self.total.snapshot(),
        }
    }
}

/// Merged (or single-shard) snapshot of every phase histogram.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSnapshot {
    pub queue: HistogramSnapshot,
    pub instantiation: HistogramSnapshot,
    pub execution: HistogramSnapshot,
    pub preempted: HistogramSnapshot,
    pub blocked: HistogramSnapshot,
    pub total: HistogramSnapshot,
}

impl PhaseSnapshot {
    /// Fold another snapshot into this one, phase by phase.
    pub fn merge(&mut self, other: &PhaseSnapshot) {
        self.queue.merge(&other.queue);
        self.instantiation.merge(&other.instantiation);
        self.execution.merge(&other.execution);
        self.preempted.merge(&other.preempted);
        self.blocked.merge(&other.blocked);
        self.total.merge(&other.total);
    }

    /// Merge a set of shards into one snapshot.
    pub(crate) fn merge_shards(shards: &[PhaseHistograms]) -> PhaseSnapshot {
        let mut acc = PhaseSnapshot::default();
        for s in shards {
            acc.merge(&s.snapshot());
        }
        acc
    }

    /// The phases in render order, labelled.
    pub fn phases(&self) -> [(&'static str, &HistogramSnapshot); 6] {
        [
            (PHASES[0], &self.queue),
            (PHASES[1], &self.instantiation),
            (PHASES[2], &self.execution),
            (PHASES[3], &self.preempted),
            (PHASES[4], &self.blocked),
            (PHASES[5], &self.total),
        ]
    }

    /// Samples recorded (every phase records once per invocation, so any
    /// phase's count is the invocation count; `total` is canonical).
    pub fn count(&self) -> u64 {
        self.total.count()
    }
}

/// One function's slice of a [`LatencyReport`].
#[derive(Debug, Clone, Default)]
pub struct FunctionReport {
    pub name: String,
    /// Outcome and admission counters.
    pub stats: FunctionStatsSnapshot,
    /// Current work-budget balance in tokens; `None` for a function without
    /// a budget.
    pub budget_balance: Option<u64>,
    /// The function's latency shards, merged; `None` until it records its
    /// first sample. Read it through [`FunctionReport::phases`].
    pub(crate) phases: Option<Box<PhaseSnapshot>>,
}

impl FunctionReport {
    /// The function's merged phases, all zeros if it has never run.
    pub fn phases(&self) -> &PhaseSnapshot {
        // One shared all-zero snapshot, built on first use rather than
        // compiled in: a 12 KiB constant would sit in the binary's
        // read-only data ahead of all of its code.
        static NO_SAMPLES: OnceLock<PhaseSnapshot> = OnceLock::new();
        match &self.phases {
            Some(phases) => phases,
            None => NO_SAMPLES.get_or_init(PhaseSnapshot::default),
        }
    }
}

/// A point-in-time view of a node: counters, registry and pool totals,
/// connection counters (zeros without HTTP), and the merged latency shards.
/// Produced by [`crate::Runtime::latency_report`]; it is all that `/metrics`,
/// `/stats` and the summary line render.
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    pub stats: StatsSnapshot,
    pub registry: RegistryStatsSnapshot,
    /// Warm sandbox-pool counters summed over all functions.
    pub pool: PoolStatsSnapshot,
    pub connections: ConnSnapshot,
    /// Whether each function has its own DWRR lane.
    pub fairness: bool,
    /// Global in-flight cap (0 = uncapped).
    pub max_inflight: usize,
    /// All invocations, across functions.
    pub global: PhaseSnapshot,
    /// One entry per function, in registration order.
    pub per_function: Vec<FunctionReport>,
}

/// A cheap, clonable handle for reading runtime metrics without holding the
/// [`crate::Runtime`] itself — `sledged`'s periodic reporter thread and the
/// bench binaries use it.
#[derive(Clone)]
pub struct MetricsHandle {
    pub(crate) shared: Arc<Shared>,
}

impl MetricsHandle {
    /// The node snapshot (see [`crate::Runtime::latency_report`]).
    pub fn latency_report(&self) -> LatencyReport {
        self.shared.latency_report()
    }
}

impl Shared {
    /// Take the node snapshot: one walk of the registry, every worker shard
    /// merged. Only a function that has recorded a sample has shards to
    /// merge and a phase copy to carry; the rest cost their name and
    /// counters.
    pub(crate) fn latency_report(&self) -> LatencyReport {
        let now = self.now_ns();
        let registry = self.registry();
        LatencyReport {
            stats: self.stats.snapshot(),
            registry: registry.stats.snapshot(),
            pool: registry.pool_stats(),
            connections: self.http_conns.snapshot(),
            fairness: self.config.fairness,
            max_inflight: self.config.max_inflight,
            global: PhaseSnapshot::merge_shards(&self.phase_shards),
            per_function: registry
                .iter()
                .map(|rf| FunctionReport {
                    name: rf.config.name.clone(),
                    stats: rf.stats.snapshot(),
                    budget_balance: rf.budget.as_ref().map(|b| b.balance(now)),
                    phases: match rf.shards() {
                        [] => None,
                        shards => Some(Box::new(PhaseSnapshot::merge_shards(shards))),
                    },
                })
                .collect(),
        }
    }
}

fn fmt_ns_f64(ns: u64) -> String {
    // Prometheus convention: seconds as a float. 1 ns = 1e-9 s; u64 ns
    // round-trips exactly enough for monitoring purposes.
    format!("{:.9}", ns as f64 / 1e9)
}

/// One `name{key="label"} value` sample per `(label, value)` pair.
fn by_label(out: &mut String, name: &str, key: &str, values: &[(&str, u64)]) {
    for (label, v) in values {
        let _ = writeln!(out, "{name}{{{key}=\"{label}\"}} {v}");
    }
}

/// Render the Prometheus text exposition served at `GET /metrics`.
pub(crate) fn render_prometheus(report: &LatencyReport) -> String {
    let mut out = String::with_capacity(4096);
    let (s, c, p) = (&report.stats, &report.connections, &report.pool);
    let functions: Vec<(String, &FunctionReport)> = report
        .per_function
        .iter()
        .map(|f| (escape_label(&f.name), f))
        .collect();

    out.push_str("# HELP sledge_invocations_total Invocations by outcome.\n");
    out.push_str("# TYPE sledge_invocations_total counter\n");
    let outcomes = [
        ("completed", s.completed),
        ("trapped", s.trapped),
        ("timed_out", s.timed_out),
        ("rejected", s.rejected),
        ("breaker_rejected", s.breaker_rejected),
    ];
    by_label(&mut out, "sledge_invocations_total", "outcome", &outcomes);
    out.push_str("# HELP sledge_scheduler_events_total Scheduler events.\n");
    out.push_str("# TYPE sledge_scheduler_events_total counter\n");
    let events = [
        ("steal", s.steals),
        ("preemption", s.preemptions),
        ("block", s.blocked),
    ];
    by_label(&mut out, "sledge_scheduler_events_total", "event", &events);

    out.push_str("# HELP sledge_connections_total Connection lifecycle events.\n");
    out.push_str("# TYPE sledge_connections_total counter\n");
    let events = [
        ("accepted", c.accepted),
        ("closed", c.closed),
        ("shed", c.shed),
        ("reaped", c.reaped),
    ];
    by_label(&mut out, "sledge_connections_total", "event", &events);
    out.push_str("# HELP sledge_connections_active Connections currently open.\n");
    out.push_str("# TYPE sledge_connections_active gauge\n");
    let _ = writeln!(out, "sledge_connections_active{{}} {}", c.active());
    out.push_str("# HELP sledge_http_requests_total Complete HTTP requests parsed.\n");
    out.push_str("# TYPE sledge_http_requests_total counter\n");
    let _ = writeln!(out, "sledge_http_requests_total{{}} {}", c.requests);
    out.push_str("# HELP sledge_http_bytes_total Bytes moved on HTTP sockets.\n");
    out.push_str("# TYPE sledge_http_bytes_total counter\n");
    let bytes = [("in", c.bytes_in), ("out", c.bytes_out)];
    by_label(&mut out, "sledge_http_bytes_total", "direction", &bytes);

    out.push_str("# HELP sledge_pool_events_total Warm sandbox-pool events.\n");
    out.push_str("# TYPE sledge_pool_events_total counter\n");
    let events = [
        ("hit", p.hits),
        ("miss", p.misses),
        ("recycled", p.recycled),
        ("discarded", p.discarded),
        ("evicted", p.evicted),
        ("reset_static", p.resets_static),
        ("reset_elided", p.resets_elided),
    ];
    by_label(&mut out, "sledge_pool_events_total", "event", &events);
    out.push_str("# HELP sledge_pool_size Instances currently parked across all pools.\n");
    out.push_str("# TYPE sledge_pool_size gauge\n");
    let _ = writeln!(out, "sledge_pool_size{{}} {}", p.size);
    out.push_str("# HELP sledge_pool_capacity Summed pool capacity across functions.\n");
    out.push_str("# TYPE sledge_pool_capacity gauge\n");
    let _ = writeln!(out, "sledge_pool_capacity{{}} {}", p.capacity);

    out.push_str("# HELP sledge_admission_total Admission-control decisions.\n");
    out.push_str("# TYPE sledge_admission_total counter\n");
    let results = [
        ("shed", s.shed),
        ("budget_rejected", s.budget_rejected),
        ("slo_rejected", s.slo_rejected),
    ];
    by_label(&mut out, "sledge_admission_total", "result", &results);
    for (label, f) in &functions {
        let fs = &f.stats;
        for (result, v) in [
            ("admitted", fs.admitted),
            ("shed", fs.shed),
            ("budget_rejected", fs.budget_rejected),
            ("slo_rejected", fs.slo_rejected),
        ] {
            let _ = writeln!(
                out,
                "sledge_admission_total{{function=\"{label}\",result=\"{result}\"}} {v}"
            );
        }
    }
    out.push_str("# HELP sledge_dwrr_deferrals_total DWRR lane pass-overs while deficit spent.\n");
    out.push_str("# TYPE sledge_dwrr_deferrals_total counter\n");
    for (label, f) in &functions {
        let v = f.stats.dwrr_deferrals;
        let _ = writeln!(
            out,
            "sledge_dwrr_deferrals_total{{function=\"{label}\"}} {v}"
        );
    }
    out.push_str("# HELP sledge_budget_balance Work-budget tokens currently available.\n");
    out.push_str("# TYPE sledge_budget_balance gauge\n");
    for (label, f) in &functions {
        if let Some(v) = f.budget_balance {
            let _ = writeln!(out, "sledge_budget_balance{{function=\"{label}\"}} {v}");
        }
    }

    out.push_str("# HELP sledge_capability_modules_total Modules gated by a capability policy.\n");
    out.push_str("# TYPE sledge_capability_modules_total counter\n");
    let verdicts = [
        ("certified", report.registry.capability_certified),
        ("rejected", report.registry.capability_rejected),
    ];
    by_label(
        &mut out,
        "sledge_capability_modules_total",
        "verdict",
        &verdicts,
    );
    out.push_str(
        "# HELP sledge_modules_compiled_total Module-store misses: translations plus artifact decodes.\n",
    );
    out.push_str("# TYPE sledge_modules_compiled_total counter\n");
    let _ = writeln!(
        out,
        "sledge_modules_compiled_total{{}} {}",
        report.registry.modules_compiled
    );

    out.push_str(
        "# HELP sledge_phase_latency_seconds Per-phase invocation latency (merged shards).\n",
    );
    out.push_str("# TYPE sledge_phase_latency_seconds summary\n");
    let mut series = |labels: &str, phases: &PhaseSnapshot| {
        for (phase, snap) in phases.phases() {
            let labels = format!("{labels}phase=\"{phase}\"");
            for q in [0.5, 0.99] {
                let v = fmt_ns_f64(snap.quantile(q));
                let _ = writeln!(
                    out,
                    "sledge_phase_latency_seconds{{{labels},quantile=\"{q}\"}} {v}"
                );
            }
            let (n, sum) = (snap.count(), fmt_ns_f64(snap.sum()));
            let _ = writeln!(out, "sledge_phase_latency_seconds_count{{{labels}}} {n}");
            let _ = writeln!(out, "sledge_phase_latency_seconds_sum{{{labels}}} {sum}");
        }
    };
    series("", &report.global);
    for (label, f) in &functions {
        series(&format!("function=\"{label}\","), f.phases());
    }
    out
}

/// `{"key":value,...}` over unsigned fields.
fn json_fields(out: &mut String, fields: &[(&str, u64)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{k}\":{v}");
    }
    out.push('}');
}

/// Render the JSON document served at `GET /stats`.
pub(crate) fn render_json(report: &LatencyReport) -> String {
    let mut out = String::with_capacity(4096);
    let (s, c, p) = (&report.stats, &report.connections, &report.pool);
    out.push_str("{\"counters\":");
    json_fields(
        &mut out,
        &[
            ("admitted", s.admitted),
            ("completed", s.completed),
            ("trapped", s.trapped),
            ("timed_out", s.timed_out),
            ("rejected", s.rejected),
            ("breaker_rejected", s.breaker_rejected),
            ("steals", s.steals),
            ("preemptions", s.preemptions),
            ("blocked", s.blocked),
        ],
    );
    out.push_str(",\"connections\":");
    json_fields(
        &mut out,
        &[
            ("accepted", c.accepted),
            ("closed", c.closed),
            ("active", c.active()),
            ("shed", c.shed),
            ("reaped", c.reaped),
            ("requests", c.requests),
            ("responses", c.responses),
            ("bytes_in", c.bytes_in),
            ("bytes_out", c.bytes_out),
        ],
    );
    out.push_str(",\"pool\":");
    json_fields(
        &mut out,
        &[
            ("capacity", p.capacity),
            ("size", p.size),
            ("hits", p.hits),
            ("misses", p.misses),
            ("recycled", p.recycled),
            ("discarded", p.discarded),
            ("evicted", p.evicted),
            ("resets_static", p.resets_static),
            ("resets_elided", p.resets_elided),
        ],
    );
    let (compiled, certified, rejected) = (
        report.registry.modules_compiled,
        report.registry.capability_certified,
        report.registry.capability_rejected,
    );
    let _ = write!(
        out,
        ",\"modules\":{{\"compiled\":{compiled}}}\
         ,\"capability\":{{\"certified\":{certified},\"rejected\":{rejected}}}\
         ,\"admission\":{{\"fairness\":{},\"max_inflight\":{},\"shed\":{},\"budget_rejected\":{},\"slo_rejected\":{},\"functions\":{{",
        report.fairness, report.max_inflight, s.shed, s.budget_rejected, s.slo_rejected
    );
    for (i, f) in report.per_function.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{}\":", escape_json(&f.name));
        let fs = &f.stats;
        let mut fields = vec![
            ("admitted", fs.admitted),
            ("shed", fs.shed),
            ("budget_rejected", fs.budget_rejected),
            ("slo_rejected", fs.slo_rejected),
            ("dwrr_deferrals", fs.dwrr_deferrals),
        ];
        fields.extend(f.budget_balance.map(|b| ("budget_balance", b)));
        json_fields(&mut out, &fields);
    }
    out.push_str("}},\"global\":");
    json_phases(&mut out, &report.global);
    out.push_str(",\"functions\":{");
    for (i, f) in report.per_function.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{}\":", escape_json(&f.name));
        json_phases(&mut out, f.phases());
    }
    out.push_str("}}");
    out
}

fn json_phases(out: &mut String, snap: &PhaseSnapshot) {
    out.push('{');
    for (i, (phase, h)) in snap.phases().iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\"{phase}\":{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            h.count(),
            h.sum(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0),
            h.mean().unwrap_or(0),
            h.quantile(0.5),
            h.quantile(0.99),
        );
    }
    out.push('}');
}

/// One-line human summary (used by `sledged --stats-interval-s`): every
/// segment, always.
pub fn summary_line(report: &LatencyReport) -> String {
    let (s, c, p, g) = (
        &report.stats,
        &report.connections,
        &report.pool,
        &report.global,
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    format!(
        "done={} trap={} timeout={} rej={} | total p50={:.3}ms p99={:.3}ms \
         | queue p99={:.3}ms inst p99={:.3}ms exec p99={:.3}ms \
         | conns active={} accepted={} shed={} reqs={} \
         | pool hit={} miss={} recycled={} size={}/{} \
         | adm shed={} budget={} slo={} | cap certified={} rejected={}",
        s.completed,
        s.trapped,
        s.timed_out,
        s.rejected + s.breaker_rejected,
        ms(g.total.quantile(0.5)),
        ms(g.total.quantile(0.99)),
        ms(g.queue.quantile(0.99)),
        ms(g.instantiation.quantile(0.99)),
        ms(g.execution.quantile(0.99)),
        c.active(),
        c.accepted,
        c.shed,
        c.requests,
        p.hits,
        p.misses,
        p.recycled,
        p.size,
        p.capacity,
        s.shed,
        s.budget_rejected,
        s.slo_rejected,
        report.registry.capability_certified,
        report.registry.capability_rejected,
    )
}

fn escape_label(s: &str) -> String {
    // Prometheus label values escape backslash, quote, and newline.
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn timings(queue_us: u64, inst_us: u64, exec_us: u64) -> Timings {
        Timings {
            arrival: Instant::now(),
            instantiation: Duration::from_micros(inst_us),
            queue_delay: Duration::from_micros(queue_us),
            execution: Duration::from_micros(exec_us),
            preempted: Duration::ZERO,
            blocked: Duration::ZERO,
            total: Duration::from_micros(queue_us + inst_us + exec_us),
            preemptions: 0,
        }
    }

    /// A node with one function, `echo`, and every subsystem off.
    fn sample_report() -> LatencyReport {
        let shards = [PhaseHistograms::default(), PhaseHistograms::default()];
        shards[0].record(&timings(10, 5, 100));
        shards[1].record(&timings(20, 7, 300));
        let snap = PhaseSnapshot::merge_shards(&shards);
        LatencyReport {
            global: snap,
            per_function: vec![FunctionReport {
                name: "echo".into(),
                phases: Some(Box::new(snap)),
                ..Default::default()
            }],
            ..Default::default()
        }
    }

    #[test]
    fn shard_merge_covers_all_phases() {
        let report = sample_report();
        assert_eq!(report.global.count(), 2);
        for (phase, h) in report.global.phases() {
            assert_eq!(h.count(), 2, "phase {phase}");
        }
        // Execution p99 is bounded by the true extrema.
        let p99 = report.global.execution.quantile(0.99);
        assert!((100_000..=300_000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn an_unsampled_function_renders_as_idle_shards_did() {
        // A function that has never run carries no phase copy; it must
        // render byte for byte as the merge of its untouched shards would.
        let idle = [PhaseHistograms::default(), PhaseHistograms::default()];
        let mut sampled = sample_report();
        sampled.per_function[0].phases = Some(Box::new(PhaseSnapshot::merge_shards(&idle)));
        let mut unsampled = sample_report();
        unsampled.per_function[0].phases = None;
        assert_eq!(render_prometheus(&unsampled), render_prometheus(&sampled));
        assert_eq!(render_json(&unsampled), render_json(&sampled));
        assert!(render_json(&unsampled)
            .contains("\"functions\":{\"echo\":{\"queue\":{\"count\":0,\"sum_ns\":0,\"min_ns\":0"));
    }

    #[test]
    fn prometheus_rendering_has_expected_series() {
        let text = render_prometheus(&sample_report());
        assert!(text.contains("# TYPE sledge_phase_latency_seconds summary"));
        assert!(text.contains("sledge_phase_latency_seconds{phase=\"queue\",quantile=\"0.5\"}"));
        assert!(
            text.contains("sledge_phase_latency_seconds{phase=\"execution\",quantile=\"0.99\"}")
        );
        assert!(text
            .contains("sledge_phase_latency_seconds{function=\"echo\",phase=\"instantiation\",quantile=\"0.99\"}"));
        assert!(text.contains("sledge_phase_latency_seconds_count{phase=\"total\"} 2"));
        assert!(text.contains("sledge_invocations_total{outcome=\"completed\"} 0"));
        // Every non-comment line is "name{labels} value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(series.contains('{') && series.ends_with('}'), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn json_rendering_parses_and_has_expected_fields() {
        let text = render_json(&sample_report());
        let doc = crate::json::parse(&text).expect("valid JSON");
        let global = doc.get("global").unwrap();
        for phase in PHASES {
            let p = global.get(phase).unwrap_or_else(|| panic!("phase {phase}"));
            assert_eq!(p.get("count").unwrap().as_u64(), Some(2));
            let p50 = p.get("p50_ns").unwrap().as_u64().unwrap();
            let min = p.get("min_ns").unwrap().as_u64().unwrap();
            let max = p.get("max_ns").unwrap().as_u64().unwrap();
            assert!(p50 >= min && p50 <= max, "{phase}: {min} <= {p50} <= {max}");
        }
        assert!(doc.get("functions").unwrap().get("echo").is_some());
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("completed")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    /// Asserts that each series is rendered in the Prometheus text, each
    /// `section.key` reads zero in the JSON, and each segment is in the
    /// summary line. An off subsystem moves no counter, so its section is
    /// all zeros rather than absent.
    fn renders_as_zeros(
        report: &LatencyReport,
        series: &[&str],
        keys: &[(&str, &str)],
        segments: &[&str],
    ) {
        let prom = render_prometheus(report);
        for s in series {
            assert!(prom.contains(s), "missing {s}\n{prom}");
        }
        let doc = crate::json::parse(&render_json(report)).expect("valid JSON");
        for (section, key) in keys {
            let v = doc.get(section).and_then(|s| s.get(key));
            assert_eq!(v.and_then(crate::Json::as_u64), Some(0), "{section}.{key}");
        }
        let line = summary_line(report);
        for segment in segments {
            assert!(line.contains(segment), "{line}");
        }
    }

    #[test]
    fn disabled_pool_renders_nothing() {
        let report = sample_report();
        assert_eq!(report.pool, PoolStatsSnapshot::default());
        renders_as_zeros(
            &report,
            &[
                "sledge_pool_events_total{event=\"hit\"} 0",
                "sledge_pool_size{} 0",
                "sledge_pool_capacity{} 0",
            ],
            &[("pool", "capacity"), ("pool", "hits")],
            &["pool hit=0"],
        );
    }

    #[test]
    fn disabled_fairness_renders_nothing() {
        let report = sample_report();
        assert!(!report.fairness);
        renders_as_zeros(
            &report,
            &[
                "sledge_admission_total{result=\"shed\"} 0",
                "sledge_admission_total{function=\"echo\",result=\"admitted\"} 0",
                "sledge_dwrr_deferrals_total{function=\"echo\"} 0",
                "# TYPE sledge_budget_balance gauge",
            ],
            &[("admission", "shed")],
            &["adm shed=0"],
        );
        // A function without a budget has no balance sample.
        assert!(!render_prometheus(&report).contains("sledge_budget_balance{"));
        let doc = crate::json::parse(&render_json(&report)).expect("valid JSON");
        let echo = doc.get("admission").unwrap().get("functions").unwrap();
        let echo = echo.get("echo").expect("echo admission");
        assert_eq!(echo.get("admitted").unwrap().as_u64(), Some(0));
        assert!(echo.get("budget_balance").is_none());
    }

    #[test]
    fn no_capability_policy_renders_nothing() {
        renders_as_zeros(
            &sample_report(),
            &[
                "sledge_capability_modules_total{verdict=\"certified\"} 0",
                "sledge_capability_modules_total{verdict=\"rejected\"} 0",
                "sledge_modules_compiled_total{} 0",
            ],
            &[
                ("capability", "certified"),
                ("capability", "rejected"),
                ("modules", "compiled"),
            ],
            &["cap certified=0 rejected=0"],
        );
    }

    #[test]
    fn no_http_renders_no_connection_series() {
        renders_as_zeros(
            &sample_report(),
            &[
                "sledge_connections_active{} 0",
                "sledge_http_bytes_total{direction=\"in\"} 0",
            ],
            &[("connections", "accepted")],
            &["conns active=0"],
        );
    }

    #[test]
    fn enabled_pool_renders_counters() {
        let mut report = sample_report();
        report.pool = PoolStatsSnapshot {
            capacity: 4,
            size: 2,
            hits: 10,
            misses: 3,
            recycled: 9,
            discarded: 1,
            evicted: 0,
            resets_static: 6,
            resets_elided: 3,
        };
        let text = render_prometheus(&report);
        assert!(text.contains("sledge_pool_events_total{event=\"hit\"} 10"));
        assert!(text.contains("sledge_pool_events_total{event=\"discarded\"} 1"));
        assert!(text.contains("sledge_pool_events_total{event=\"reset_static\"} 6"));
        assert!(text.contains("sledge_pool_events_total{event=\"reset_elided\"} 3"));
        assert!(text.contains("sledge_pool_size{} 2"));
        assert!(text.contains("sledge_pool_capacity{} 4"));
        let json = render_json(&report);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let pool = doc.get("pool").expect("pool object");
        assert_eq!(pool.get("hits").unwrap().as_u64(), Some(10));
        assert_eq!(pool.get("capacity").unwrap().as_u64(), Some(4));
        assert_eq!(pool.get("resets_static").unwrap().as_u64(), Some(6));
        assert_eq!(pool.get("resets_elided").unwrap().as_u64(), Some(3));
        let line = summary_line(&report);
        assert!(line.contains("pool hit=10 miss=3"), "{line}");
    }

    #[test]
    fn enabled_admission_renders_counters() {
        let mut report = sample_report();
        report.stats.shed = 4;
        report.stats.budget_rejected = 7;
        report.stats.slo_rejected = 2;
        report.fairness = true;
        report.max_inflight = 16;
        let echo = &mut report.per_function[0];
        echo.stats = FunctionStatsSnapshot {
            admitted: 40,
            shed: 4,
            budget_rejected: 7,
            slo_rejected: 2,
            dwrr_deferrals: 9,
            ..Default::default()
        };
        echo.budget_balance = Some(12345);
        let prom = render_prometheus(&report);
        assert!(prom.contains("sledge_admission_total{result=\"budget_rejected\"} 7"));
        assert!(prom.contains("sledge_admission_total{function=\"echo\",result=\"admitted\"} 40"));
        assert!(prom.contains("sledge_dwrr_deferrals_total{function=\"echo\"} 9"));
        assert!(prom.contains("sledge_budget_balance{function=\"echo\"} 12345"));
        let json = render_json(&report);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let adm = doc.get("admission").expect("admission object");
        assert_eq!(adm.get("shed").unwrap().as_u64(), Some(4));
        assert_eq!(adm.get("fairness").unwrap().as_bool(), Some(true));
        assert_eq!(adm.get("max_inflight").unwrap().as_u64(), Some(16));
        let f = adm.get("functions").unwrap().get("echo").expect("echo");
        assert_eq!(f.get("budget_rejected").unwrap().as_u64(), Some(7));
        assert_eq!(f.get("budget_balance").unwrap().as_u64(), Some(12345));
        let line = summary_line(&report);
        assert!(line.contains("adm shed=4 budget=7 slo=2"), "{line}");
    }

    #[test]
    fn enabled_capability_renders_counters() {
        let mut report = sample_report();
        report.registry.capability_certified = 5;
        report.registry.capability_rejected = 2;
        report.registry.modules_compiled = 37;
        let prom = render_prometheus(&report);
        assert!(prom.contains("sledge_modules_compiled_total{} 37\n"));
        assert!(prom.contains("sledge_capability_modules_total{verdict=\"certified\"} 5"));
        assert!(prom.contains("sledge_capability_modules_total{verdict=\"rejected\"} 2"));
        let json = render_json(&report);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let cap = doc.get("capability").expect("capability object");
        assert_eq!(cap.get("certified").unwrap().as_u64(), Some(5));
        assert_eq!(cap.get("rejected").unwrap().as_u64(), Some(2));
        let modules = doc.get("modules").expect("modules object");
        assert_eq!(modules.get("compiled").unwrap().as_u64(), Some(37));
        let line = summary_line(&report);
        assert!(line.contains("cap certified=5 rejected=2"), "{line}");
    }

    #[test]
    fn http_front_end_renders_connection_counters() {
        let mut report = sample_report();
        report.connections = ConnSnapshot {
            accepted: 10,
            closed: 6,
            shed: 3,
            reaped: 1,
            requests: 25,
            responses: 24,
            bytes_in: 4096,
            bytes_out: 8192,
        };
        let prom = render_prometheus(&report);
        assert!(prom.contains("sledge_connections_total{event=\"accepted\"} 10"));
        assert!(prom.contains("sledge_connections_total{event=\"shed\"} 3"));
        assert!(prom.contains("sledge_connections_total{event=\"reaped\"} 1"));
        assert!(prom.contains("sledge_connections_active{} 4"));
        assert!(prom.contains("sledge_http_requests_total{} 25"));
        assert!(prom.contains("sledge_http_bytes_total{direction=\"in\"} 4096"));
        assert!(prom.contains("sledge_http_bytes_total{direction=\"out\"} 8192"));
        let json = render_json(&report);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let c = doc.get("connections").expect("connections object");
        assert_eq!(c.get("accepted").unwrap().as_u64(), Some(10));
        assert_eq!(c.get("active").unwrap().as_u64(), Some(4));
        assert_eq!(c.get("requests").unwrap().as_u64(), Some(25));
        let line = summary_line(&report);
        assert!(line.contains("conns active=4 accepted=10 shed=3"), "{line}");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn summary_line_mentions_key_figures() {
        let mut report = sample_report();
        report.stats.completed = 2;
        let line = summary_line(&report);
        assert!(line.starts_with("done=2"), "{line}");
        assert!(line.contains("p99"), "{line}");
    }
}
