//! Invocation-lifecycle metrics: per-phase latency shards, the node
//! snapshot [`LatencyReport`], and its two renderings: the `/metrics`
//! Prometheus text and the one-line summary.
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
use std::sync::OnceLock;

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
/// Produced by [`crate::Runtime::latency_report`]; it is all that `/metrics`
/// and the summary line render.
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    pub stats: StatsSnapshot,
    pub registry: RegistryStatsSnapshot,
    /// Warm sandbox-pool counters summed over all functions.
    pub pool: PoolStatsSnapshot,
    pub connections: ConnSnapshot,
    /// All invocations, across functions.
    pub global: PhaseSnapshot,
    /// One entry per function, in registration order.
    pub per_function: Vec<FunctionReport>,
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
    out.push_str("# HELP sledge_http_responses_total HTTP responses queued for sending.\n");
    out.push_str("# TYPE sledge_http_responses_total counter\n");
    let _ = writeln!(out, "sledge_http_responses_total{{}} {}", c.responses);
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
        ("admitted", s.admitted),
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
        "# HELP sledge_modules_compiled_total Module-store misses: the modules translated.\n",
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

/// One-line human summary (`sledged`'s `[final]` line): every segment,
/// always.
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

/// A Prometheus label value with its backslashes, quotes and newlines
/// escaped, ready to sit between the quotes of `key="…"`.
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
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
        assert!(render_prometheus(&unsampled)
            .contains("sledge_phase_latency_seconds_count{function=\"echo\",phase=\"queue\"} 0\n"));
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

    /// Asserts that each series is rendered in the Prometheus text and each
    /// segment is in the summary line. An off subsystem moves no counter, so
    /// its series read zero rather than being absent.
    fn renders_as_zeros(report: &LatencyReport, series: &[&str], segments: &[&str]) {
        let prom = render_prometheus(report);
        for s in series {
            assert!(prom.contains(s), "missing {s}\n{prom}");
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
            &["pool hit=0"],
        );
    }

    #[test]
    fn disabled_fairness_renders_nothing() {
        let report = sample_report();
        renders_as_zeros(
            &report,
            &[
                "sledge_admission_total{result=\"admitted\"} 0",
                "sledge_admission_total{result=\"shed\"} 0",
                "sledge_admission_total{function=\"echo\",result=\"admitted\"} 0",
                "sledge_dwrr_deferrals_total{function=\"echo\"} 0",
                "# TYPE sledge_budget_balance gauge",
            ],
            &["adm shed=0"],
        );
        // A function without a budget has no balance sample.
        assert!(!render_prometheus(&report).contains("sledge_budget_balance{"));
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
            &["cap certified=0 rejected=0"],
        );
    }

    #[test]
    fn no_http_renders_no_connection_series() {
        renders_as_zeros(
            &sample_report(),
            &[
                "sledge_connections_active{} 0",
                "sledge_connections_total{event=\"accepted\"} 0",
                "sledge_http_responses_total{} 0",
                "sledge_http_bytes_total{direction=\"in\"} 0",
            ],
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
            resets_elided: 3,
        };
        let text = render_prometheus(&report);
        assert!(text.contains("sledge_pool_events_total{event=\"hit\"} 10"));
        assert!(text.contains("sledge_pool_events_total{event=\"discarded\"} 1"));
        assert!(text.contains("sledge_pool_events_total{event=\"reset_elided\"} 3"));
        assert!(text.contains("sledge_pool_size{} 2"));
        assert!(text.contains("sledge_pool_capacity{} 4"));
        let line = summary_line(&report);
        assert!(line.contains("pool hit=10 miss=3"), "{line}");
    }

    #[test]
    fn enabled_admission_renders_counters() {
        let mut report = sample_report();
        report.stats.admitted = 40;
        report.stats.shed = 4;
        report.stats.budget_rejected = 7;
        report.stats.slo_rejected = 2;
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
        assert!(prom.contains("sledge_admission_total{result=\"admitted\"} 40"));
        assert!(prom.contains("sledge_admission_total{result=\"shed\"} 4"));
        assert!(
            prom.contains("sledge_admission_total{function=\"echo\",result=\"budget_rejected\"} 7")
        );
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
        assert!(prom.contains("sledge_http_responses_total{} 24"));
        let line = summary_line(&report);
        assert!(line.contains("conns active=4 accepted=10 shed=3"), "{line}");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\n"), "a\\\"b\\\\c\\n");
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
