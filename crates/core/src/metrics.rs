//! Invocation-lifecycle metrics: per-phase latency shards, the merged
//! [`LatencyReport`], and the `/metrics` (Prometheus text) and `/stats`
//! (JSON) renderings.
//!
//! Every completed invocation is decomposed into phases (queue wait,
//! instantiation, pure execution, preempted time, blocked time, end-to-end
//! total) and recorded into one [`PhaseHistograms`] *shard*. Each worker
//! owns a private shard per key (one global, one per function), so the hot
//! path touches only cache lines no other worker writes; readers merge
//! shard snapshots on demand.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::pool::PoolStatsSnapshot;
use crate::sandbox::Timings;
use crate::stats::StatsSnapshot;
use crate::Shared;
use sledge_http::ConnSnapshot;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The lifecycle phases a latency sample is split into, in render order.
pub const PHASES: [&str; 6] = [
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
    pub fn snapshot(&self) -> PhaseSnapshot {
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
    pub fn merge_shards(shards: &[PhaseHistograms]) -> PhaseSnapshot {
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

/// Per-function admission-control counters for the fairness subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionFnSnapshot {
    /// Requests admitted past every gate (dispatched to a worker).
    pub admitted: u64,
    /// Requests shed (429) by the global in-flight cap.
    pub shed: u64,
    /// Requests rejected (429) on an empty work budget.
    pub budget_rejected: u64,
    /// Requests rejected (429) on a blown queue-phase p99 SLO.
    pub slo_rejected: u64,
    /// DWRR lane pass-overs while this function's deficit was spent.
    pub dwrr_deferrals: u64,
    /// Current work-budget balance in tokens, when a budget is armed.
    pub budget_balance: Option<u64>,
}

/// The admission-control view: present in a [`LatencyReport`] only when
/// some part of the fairness subsystem is armed (DWRR, an in-flight cap,
/// a budget, or a queue SLO), so a fully disarmed runtime renders output
/// byte-identical to one without the subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionReport {
    /// Whether DWRR scheduling is on.
    pub fairness: bool,
    /// Global in-flight cap (0 = uncapped).
    pub max_inflight: usize,
    /// Per-function admission counters, in registration order.
    pub per_function: Vec<(String, AdmissionFnSnapshot)>,
}

/// Capability-policy counters: present in a [`LatencyReport`] only when at
/// least one module was gated by a policy (certified or rejected), so a
/// runtime with no policies configured renders output byte-identical to one
/// without the subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapabilityReport {
    /// Modules whose effect certificate satisfied their policy.
    pub certified: u64,
    /// Modules rejected by a policy.
    pub rejected: u64,
}

/// The merged latency view over every worker shard: global plus
/// per-function breakdowns. Produced by [`crate::Runtime::latency_report`]
/// and by the `/metrics` / `/stats` endpoints.
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    /// All invocations, across functions.
    pub global: PhaseSnapshot,
    /// Per-function breakdowns, in registration order.
    pub per_function: Vec<(String, PhaseSnapshot)>,
    /// Warm sandbox-pool counters summed over all functions. All-zero
    /// (capacity 0) when pooling is disabled — the renderers then emit no
    /// pool series at all, keeping the disabled output byte-for-byte
    /// identical to a runtime without the subsystem.
    pub pool: PoolStatsSnapshot,
    /// Admission-control counters; `None` when the fairness subsystem is
    /// fully disarmed (same discipline as the pool's capacity-0 gate).
    pub admission: Option<AdmissionReport>,
    /// Capability-policy counters; `None` when no module set a policy
    /// (same byte-identity discipline as the pool and admission gates).
    pub capability: Option<CapabilityReport>,
    /// Connection-lifecycle counters from the HTTP front end; `None` when
    /// the runtime serves no HTTP (same byte-identity discipline as the
    /// other gated sections).
    pub connections: Option<ConnSnapshot>,
}

/// A cheap, clonable handle for reading runtime metrics without holding the
/// [`crate::Runtime`] itself — `sledged`'s periodic reporter thread and the
/// bench binaries use it.
#[derive(Clone)]
pub struct MetricsHandle {
    pub(crate) shared: Arc<Shared>,
}

impl MetricsHandle {
    /// Merged latency report (see [`crate::Runtime::latency_report`]).
    pub fn latency_report(&self) -> LatencyReport {
        self.shared.latency_report()
    }

    /// Global counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }
}

impl Shared {
    /// Merge every worker shard into the global + per-function report.
    pub(crate) fn latency_report(&self) -> LatencyReport {
        let global = PhaseSnapshot::merge_shards(&self.phase_shards);
        let registry = self.registry();
        let per_function = registry
            .iter()
            .map(|rf| {
                (
                    rf.config.name.clone(),
                    PhaseSnapshot::merge_shards(&rf.metrics),
                )
            })
            .collect();
        let mut pool = PoolStatsSnapshot::default();
        for rf in registry.iter() {
            pool.merge(&rf.pool.snapshot());
        }
        // The admission view exists only when some part of the fairness
        // subsystem is armed; otherwise the report (and thus every
        // rendering) is identical to a runtime without it.
        let armed = self.config.fairness
            || self.config.max_inflight > 0
            || registry
                .iter()
                .any(|rf| rf.budget.is_some() || rf.config.queue_slo.is_some());
        let admission = armed.then(|| {
            let now = self.now_ns();
            AdmissionReport {
                fairness: self.config.fairness,
                max_inflight: self.config.max_inflight,
                per_function: registry
                    .iter()
                    .map(|rf| {
                        let s = &rf.stats;
                        (
                            rf.config.name.clone(),
                            AdmissionFnSnapshot {
                                admitted: s.admitted.load(Ordering::Relaxed),
                                shed: s.shed.load(Ordering::Relaxed),
                                budget_rejected: s.budget_rejected.load(Ordering::Relaxed),
                                slo_rejected: s.slo_rejected.load(Ordering::Relaxed),
                                dwrr_deferrals: s.dwrr_deferrals.load(Ordering::Relaxed),
                                budget_balance: rf.budget.as_ref().map(|b| b.balance(now)),
                            },
                        )
                    })
                    .collect(),
            }
        });
        // Capability counters appear only once a policy has actually gated
        // a module; a policy-free runtime reports `None` and renders
        // byte-identically to one without the subsystem.
        let rs = registry.stats.snapshot();
        let capability =
            (rs.capability_certified + rs.capability_rejected > 0).then_some(CapabilityReport {
                certified: rs.capability_certified,
                rejected: rs.capability_rejected,
            });
        drop(registry);
        LatencyReport {
            global,
            per_function,
            pool,
            admission,
            capability,
            connections: self.http_conns.as_ref().map(|c| c.snapshot()),
        }
    }
}

fn fmt_ns_f64(ns: u64) -> String {
    // Prometheus convention: seconds as a float. 1 ns = 1e-9 s; u64 ns
    // round-trips exactly enough for monitoring purposes.
    format!("{:.9}", ns as f64 / 1e9)
}

/// Render the Prometheus text exposition served at `GET /metrics`.
pub fn render_prometheus(report: &LatencyReport, stats: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(4096);

    out.push_str("# HELP sledge_invocations_total Invocations by outcome.\n");
    out.push_str("# TYPE sledge_invocations_total counter\n");
    for (outcome, v) in [
        ("completed", stats.completed),
        ("trapped", stats.trapped),
        ("timed_out", stats.timed_out),
        ("rejected", stats.rejected),
        ("breaker_rejected", stats.breaker_rejected),
    ] {
        out.push_str(&format!(
            "sledge_invocations_total{{outcome=\"{outcome}\"}} {v}\n"
        ));
    }

    out.push_str("# HELP sledge_scheduler_events_total Scheduler events.\n");
    out.push_str("# TYPE sledge_scheduler_events_total counter\n");
    for (event, v) in [
        ("steal", stats.steals),
        ("preemption", stats.preemptions),
        ("block", stats.blocked),
    ] {
        out.push_str(&format!(
            "sledge_scheduler_events_total{{event=\"{event}\"}} {v}\n"
        ));
    }

    // Connection series exist only when the runtime serves HTTP; an
    // in-process-only runtime leaves the exposition byte-for-byte
    // unchanged.
    if let Some(c) = &report.connections {
        out.push_str("# HELP sledge_connections_total Connection lifecycle events.\n");
        out.push_str("# TYPE sledge_connections_total counter\n");
        for (event, v) in [
            ("accepted", c.accepted),
            ("closed", c.closed),
            ("shed", c.shed),
            ("reaped", c.reaped),
        ] {
            out.push_str(&format!(
                "sledge_connections_total{{event=\"{event}\"}} {v}\n"
            ));
        }
        out.push_str("# HELP sledge_connections_active Connections currently open.\n");
        out.push_str("# TYPE sledge_connections_active gauge\n");
        out.push_str(&format!("sledge_connections_active{{}} {}\n", c.active()));
        out.push_str("# HELP sledge_http_requests_total Complete HTTP requests parsed.\n");
        out.push_str("# TYPE sledge_http_requests_total counter\n");
        out.push_str(&format!("sledge_http_requests_total{{}} {}\n", c.requests));
        out.push_str("# HELP sledge_http_bytes_total Bytes moved on HTTP sockets.\n");
        out.push_str("# TYPE sledge_http_bytes_total counter\n");
        for (dir, v) in [("in", c.bytes_in), ("out", c.bytes_out)] {
            out.push_str(&format!(
                "sledge_http_bytes_total{{direction=\"{dir}\"}} {v}\n"
            ));
        }
    }

    // Pool series exist only when the pool subsystem is armed; a disabled
    // pool leaves the exposition byte-for-byte unchanged.
    if report.pool.capacity > 0 {
        let p = &report.pool;
        out.push_str("# HELP sledge_pool_events_total Warm sandbox-pool events.\n");
        out.push_str("# TYPE sledge_pool_events_total counter\n");
        for (event, v) in [
            ("hit", p.hits),
            ("miss", p.misses),
            ("recycled", p.recycled),
            ("discarded", p.discarded),
            ("poisoned", p.poisoned),
            ("prewarmed", p.prewarmed),
            ("evicted", p.evicted),
            ("reset_static", p.resets_static),
            ("reset_elided", p.resets_elided),
        ] {
            out.push_str(&format!(
                "sledge_pool_events_total{{event=\"{event}\"}} {v}\n"
            ));
        }
        out.push_str("# HELP sledge_pool_size Instances currently parked across all pools.\n");
        out.push_str("# TYPE sledge_pool_size gauge\n");
        out.push_str(&format!("sledge_pool_size{{}} {}\n", p.size));
        out.push_str("# HELP sledge_pool_capacity Summed pool capacity across functions.\n");
        out.push_str("# TYPE sledge_pool_capacity gauge\n");
        out.push_str(&format!("sledge_pool_capacity{{}} {}\n", p.capacity));
    }

    // Admission series exist only when the fairness subsystem is armed;
    // same byte-identity discipline as the pool above.
    if let Some(adm) = &report.admission {
        out.push_str("# HELP sledge_admission_total Admission-control decisions.\n");
        out.push_str("# TYPE sledge_admission_total counter\n");
        for (result, v) in [
            ("shed", stats.shed),
            ("budget_rejected", stats.budget_rejected),
            ("slo_rejected", stats.slo_rejected),
        ] {
            out.push_str(&format!(
                "sledge_admission_total{{result=\"{result}\"}} {v}\n"
            ));
        }
        for (name, s) in &adm.per_function {
            let fn_label = escape_label(name);
            for (result, v) in [
                ("admitted", s.admitted),
                ("shed", s.shed),
                ("budget_rejected", s.budget_rejected),
                ("slo_rejected", s.slo_rejected),
            ] {
                out.push_str(&format!(
                    "sledge_admission_total{{function=\"{fn_label}\",result=\"{result}\"}} {v}\n"
                ));
            }
        }
        if adm.fairness {
            out.push_str(
                "# HELP sledge_dwrr_deferrals_total DWRR lane pass-overs while deficit spent.\n",
            );
            out.push_str("# TYPE sledge_dwrr_deferrals_total counter\n");
            for (name, s) in &adm.per_function {
                out.push_str(&format!(
                    "sledge_dwrr_deferrals_total{{function=\"{}\"}} {}\n",
                    escape_label(name),
                    s.dwrr_deferrals
                ));
            }
        }
        if adm
            .per_function
            .iter()
            .any(|(_, s)| s.budget_balance.is_some())
        {
            out.push_str("# HELP sledge_budget_balance Work-budget tokens currently available.\n");
            out.push_str("# TYPE sledge_budget_balance gauge\n");
            for (name, s) in &adm.per_function {
                if let Some(balance) = s.budget_balance {
                    out.push_str(&format!(
                        "sledge_budget_balance{{function=\"{}\"}} {balance}\n",
                        escape_label(name)
                    ));
                }
            }
        }
    }

    // Capability series exist only when a policy gated at least one module;
    // same byte-identity discipline as the pool and admission blocks above.
    if let Some(cap) = &report.capability {
        out.push_str(
            "# HELP sledge_capability_modules_total Modules gated by a capability policy.\n",
        );
        out.push_str("# TYPE sledge_capability_modules_total counter\n");
        for (verdict, v) in [("certified", cap.certified), ("rejected", cap.rejected)] {
            out.push_str(&format!(
                "sledge_capability_modules_total{{verdict=\"{verdict}\"}} {v}\n"
            ));
        }
    }

    out.push_str(
        "# HELP sledge_phase_latency_seconds Per-phase invocation latency (merged shards).\n",
    );
    out.push_str("# TYPE sledge_phase_latency_seconds summary\n");
    let mut series = |prefix: &str, labels: &str, snap: &HistogramSnapshot| {
        for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
            out.push_str(&format!(
                "{prefix}{{{labels}quantile=\"{label}\"}} {}\n",
                fmt_ns_f64(snap.quantile(q))
            ));
        }
        out.push_str(&format!(
            "{prefix}_count{{{labels_t}}} {}\n",
            snap.count(),
            labels_t = labels.trim_end_matches(',')
        ));
        out.push_str(&format!(
            "{prefix}_sum{{{labels_t}}} {}\n",
            fmt_ns_f64(snap.sum()),
            labels_t = labels.trim_end_matches(',')
        ));
    };
    for (phase, snap) in report.global.phases() {
        series(
            "sledge_phase_latency_seconds",
            &format!("phase=\"{phase}\","),
            snap,
        );
    }
    for (name, phases) in &report.per_function {
        let fn_label = escape_label(name);
        for (phase, snap) in phases.phases() {
            series(
                "sledge_phase_latency_seconds",
                &format!("function=\"{fn_label}\",phase=\"{phase}\","),
                snap,
            );
        }
    }
    out
}

/// Render the JSON document served at `GET /stats`.
pub fn render_json(report: &LatencyReport, stats: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"counters\":{");
    for (i, (k, v)) in [
        ("admitted", stats.admitted),
        ("completed", stats.completed),
        ("trapped", stats.trapped),
        ("timed_out", stats.timed_out),
        ("rejected", stats.rejected),
        ("breaker_rejected", stats.breaker_rejected),
        ("steals", stats.steals),
        ("preemptions", stats.preemptions),
        ("blocked", stats.blocked),
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{k}\":{v}"));
    }
    out.push('}');
    if let Some(c) = &report.connections {
        out.push_str(&format!(
            ",\"connections\":{{\"accepted\":{},\"closed\":{},\"active\":{},\"shed\":{},\"reaped\":{},\"requests\":{},\"responses\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
            c.accepted, c.closed, c.active(), c.shed, c.reaped, c.requests, c.responses, c.bytes_in, c.bytes_out,
        ));
    }
    if report.pool.capacity > 0 {
        let p = &report.pool;
        out.push_str(&format!(
            ",\"pool\":{{\"capacity\":{},\"size\":{},\"hits\":{},\"misses\":{},\"recycled\":{},\"discarded\":{},\"poisoned\":{},\"prewarmed\":{},\"evicted\":{},\"resets_static\":{},\"resets_elided\":{}}}",
            p.capacity, p.size, p.hits, p.misses, p.recycled, p.discarded, p.poisoned, p.prewarmed, p.evicted, p.resets_static, p.resets_elided,
        ));
    }
    if let Some(cap) = &report.capability {
        out.push_str(&format!(
            ",\"capability\":{{\"certified\":{},\"rejected\":{}}}",
            cap.certified, cap.rejected
        ));
    }
    if let Some(adm) = &report.admission {
        out.push_str(&format!(
            ",\"admission\":{{\"fairness\":{},\"max_inflight\":{},\"shed\":{},\"budget_rejected\":{},\"slo_rejected\":{},\"functions\":{{",
            adm.fairness, adm.max_inflight, stats.shed, stats.budget_rejected, stats.slo_rejected
        ));
        for (i, (name, s)) in adm.per_function.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"admitted\":{},\"shed\":{},\"budget_rejected\":{},\"slo_rejected\":{},\"dwrr_deferrals\":{}",
                escape_json(name),
                s.admitted,
                s.shed,
                s.budget_rejected,
                s.slo_rejected,
                s.dwrr_deferrals,
            ));
            if let Some(balance) = s.budget_balance {
                out.push_str(&format!(",\"budget_balance\":{balance}"));
            }
            out.push('}');
        }
        out.push_str("}}");
    }
    out.push_str(",\"global\":");
    json_phases(&mut out, &report.global);
    out.push_str(",\"functions\":{");
    for (i, (name, phases)) in report.per_function.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":", escape_json(name)));
        json_phases(&mut out, phases);
    }
    out.push_str("}}");
    out
}

fn json_phases(out: &mut String, snap: &PhaseSnapshot) {
    out.push('{');
    for (i, (phase, h)) in snap.phases().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{phase}\":{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            h.count(),
            h.sum(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0),
            h.mean().unwrap_or(0),
            h.quantile(0.5),
            h.quantile(0.99),
        ));
    }
    out.push('}');
}

/// One-line human summary (used by `sledged --stats-interval-s`).
pub fn summary_line(report: &LatencyReport, stats: &StatsSnapshot) -> String {
    let g = &report.global;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut line = format!(
        "done={} trap={} timeout={} rej={} | total p50={:.3}ms p99={:.3}ms | queue p99={:.3}ms inst p99={:.3}ms exec p99={:.3}ms",
        stats.completed,
        stats.trapped,
        stats.timed_out,
        stats.rejected + stats.breaker_rejected,
        ms(g.total.quantile(0.5)),
        ms(g.total.quantile(0.99)),
        ms(g.queue.quantile(0.99)),
        ms(g.instantiation.quantile(0.99)),
        ms(g.execution.quantile(0.99)),
    );
    if let Some(c) = &report.connections {
        line.push_str(&format!(
            " | conns active={} accepted={} shed={} reqs={}",
            c.active(),
            c.accepted,
            c.shed,
            c.requests
        ));
    }
    if report.pool.capacity > 0 {
        let p = &report.pool;
        line.push_str(&format!(
            " | pool hit={} miss={} recycled={} size={}/{}",
            p.hits, p.misses, p.recycled, p.size, p.capacity
        ));
    }
    if report.admission.is_some() {
        line.push_str(&format!(
            " | adm shed={} budget={} slo={}",
            stats.shed, stats.budget_rejected, stats.slo_rejected
        ));
    }
    if let Some(cap) = &report.capability {
        line.push_str(&format!(
            " | cap certified={} rejected={}",
            cap.certified, cap.rejected
        ));
    }
    line
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

    fn sample_report() -> (LatencyReport, StatsSnapshot) {
        let shards = [PhaseHistograms::default(), PhaseHistograms::default()];
        shards[0].record(&timings(10, 5, 100));
        shards[1].record(&timings(20, 7, 300));
        let snap = PhaseSnapshot::merge_shards(&shards);
        let report = LatencyReport {
            global: snap,
            per_function: vec![("echo".into(), snap)],
            pool: PoolStatsSnapshot::default(),
            admission: None,
            capability: None,
            connections: None,
        };
        (report, StatsSnapshot::default())
    }

    #[test]
    fn shard_merge_covers_all_phases() {
        let (report, _) = sample_report();
        assert_eq!(report.global.count(), 2);
        for (phase, h) in report.global.phases() {
            assert_eq!(h.count(), 2, "phase {phase}");
        }
        // Execution p99 is bounded by the true extrema.
        let p99 = report.global.execution.quantile(0.99);
        assert!((100_000..=300_000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn prometheus_rendering_has_expected_series() {
        let (report, stats) = sample_report();
        let text = render_prometheus(&report, &stats);
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
        let (report, stats) = sample_report();
        let text = render_json(&report, &stats);
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

    #[test]
    fn disabled_pool_renders_nothing() {
        let (report, stats) = sample_report();
        assert_eq!(report.pool.capacity, 0);
        assert!(!render_prometheus(&report, &stats).contains("sledge_pool"));
        assert!(!render_json(&report, &stats).contains("\"pool\""));
        assert!(!summary_line(&report, &stats).contains("pool"));
    }

    #[test]
    fn enabled_pool_renders_counters() {
        let (mut report, stats) = sample_report();
        report.pool = PoolStatsSnapshot {
            capacity: 4,
            size: 2,
            hits: 10,
            misses: 3,
            recycled: 9,
            discarded: 1,
            poisoned: 1,
            prewarmed: 2,
            evicted: 0,
            resets_static: 6,
            resets_elided: 3,
        };
        let text = render_prometheus(&report, &stats);
        assert!(text.contains("sledge_pool_events_total{event=\"hit\"} 10"));
        assert!(text.contains("sledge_pool_events_total{event=\"poisoned\"} 1"));
        assert!(text.contains("sledge_pool_events_total{event=\"reset_static\"} 6"));
        assert!(text.contains("sledge_pool_events_total{event=\"reset_elided\"} 3"));
        assert!(text.contains("sledge_pool_size{} 2"));
        assert!(text.contains("sledge_pool_capacity{} 4"));
        let json = render_json(&report, &stats);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let pool = doc.get("pool").expect("pool object");
        assert_eq!(pool.get("hits").unwrap().as_u64(), Some(10));
        assert_eq!(pool.get("capacity").unwrap().as_u64(), Some(4));
        assert_eq!(pool.get("resets_static").unwrap().as_u64(), Some(6));
        assert_eq!(pool.get("resets_elided").unwrap().as_u64(), Some(3));
        let line = summary_line(&report, &stats);
        assert!(line.contains("pool hit=10 miss=3"), "{line}");
    }

    #[test]
    fn disabled_fairness_renders_nothing() {
        let (report, stats) = sample_report();
        assert!(report.admission.is_none());
        let prom = render_prometheus(&report, &stats);
        assert!(!prom.contains("sledge_admission"));
        assert!(!prom.contains("sledge_dwrr"));
        assert!(!prom.contains("sledge_budget"));
        let json = render_json(&report, &stats);
        assert!(!json.contains("\"admission\""));
        assert!(!summary_line(&report, &stats).contains("adm"));
    }

    #[test]
    fn enabled_admission_renders_counters() {
        let (mut report, mut stats) = sample_report();
        stats.shed = 4;
        stats.budget_rejected = 7;
        stats.slo_rejected = 2;
        report.admission = Some(AdmissionReport {
            fairness: true,
            max_inflight: 16,
            per_function: vec![(
                "echo".into(),
                AdmissionFnSnapshot {
                    admitted: 40,
                    shed: 4,
                    budget_rejected: 7,
                    slo_rejected: 2,
                    dwrr_deferrals: 9,
                    budget_balance: Some(12345),
                },
            )],
        });
        let prom = render_prometheus(&report, &stats);
        assert!(prom.contains("sledge_admission_total{result=\"budget_rejected\"} 7"));
        assert!(prom.contains("sledge_admission_total{function=\"echo\",result=\"admitted\"} 40"));
        assert!(prom.contains("sledge_dwrr_deferrals_total{function=\"echo\"} 9"));
        assert!(prom.contains("sledge_budget_balance{function=\"echo\"} 12345"));
        let json = render_json(&report, &stats);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let adm = doc.get("admission").expect("admission object");
        assert_eq!(adm.get("shed").unwrap().as_u64(), Some(4));
        let f = adm.get("functions").unwrap().get("echo").expect("echo");
        assert_eq!(f.get("budget_rejected").unwrap().as_u64(), Some(7));
        assert_eq!(f.get("budget_balance").unwrap().as_u64(), Some(12345));
        let line = summary_line(&report, &stats);
        assert!(line.contains("adm shed=4 budget=7 slo=2"), "{line}");
    }

    #[test]
    fn no_capability_policy_renders_nothing() {
        let (report, stats) = sample_report();
        assert!(report.capability.is_none());
        assert!(!render_prometheus(&report, &stats).contains("capability"));
        assert!(!render_json(&report, &stats).contains("capability"));
        assert!(!summary_line(&report, &stats).contains("cap "));
    }

    #[test]
    fn enabled_capability_renders_counters() {
        let (mut report, stats) = sample_report();
        report.capability = Some(CapabilityReport {
            certified: 5,
            rejected: 2,
        });
        let prom = render_prometheus(&report, &stats);
        assert!(prom.contains("sledge_capability_modules_total{verdict=\"certified\"} 5"));
        assert!(prom.contains("sledge_capability_modules_total{verdict=\"rejected\"} 2"));
        let json = render_json(&report, &stats);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let cap = doc.get("capability").expect("capability object");
        assert_eq!(cap.get("certified").unwrap().as_u64(), Some(5));
        assert_eq!(cap.get("rejected").unwrap().as_u64(), Some(2));
        let line = summary_line(&report, &stats);
        assert!(line.contains("cap certified=5 rejected=2"), "{line}");
    }

    #[test]
    fn no_http_renders_no_connection_series() {
        let (report, stats) = sample_report();
        assert!(report.connections.is_none());
        let prom = render_prometheus(&report, &stats);
        assert!(!prom.contains("sledge_connections"));
        assert!(!prom.contains("sledge_http"));
        assert!(!render_json(&report, &stats).contains("\"connections\""));
        assert!(!summary_line(&report, &stats).contains("conns"));
    }

    #[test]
    fn http_front_end_renders_connection_counters() {
        let (mut report, stats) = sample_report();
        report.connections = Some(ConnSnapshot {
            accepted: 10,
            closed: 6,
            shed: 3,
            reaped: 1,
            requests: 25,
            responses: 24,
            bytes_in: 4096,
            bytes_out: 8192,
        });
        let prom = render_prometheus(&report, &stats);
        assert!(prom.contains("sledge_connections_total{event=\"accepted\"} 10"));
        assert!(prom.contains("sledge_connections_total{event=\"shed\"} 3"));
        assert!(prom.contains("sledge_connections_total{event=\"reaped\"} 1"));
        assert!(prom.contains("sledge_connections_active{} 4"));
        assert!(prom.contains("sledge_http_requests_total{} 25"));
        assert!(prom.contains("sledge_http_bytes_total{direction=\"in\"} 4096"));
        assert!(prom.contains("sledge_http_bytes_total{direction=\"out\"} 8192"));
        let json = render_json(&report, &stats);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let c = doc.get("connections").expect("connections object");
        assert_eq!(c.get("accepted").unwrap().as_u64(), Some(10));
        assert_eq!(c.get("active").unwrap().as_u64(), Some(4));
        assert_eq!(c.get("requests").unwrap().as_u64(), Some(25));
        let line = summary_line(&report, &stats);
        assert!(line.contains("conns active=4 accepted=10 shed=3"), "{line}");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn summary_line_mentions_key_figures() {
        let (report, mut stats) = sample_report();
        stats.completed = 2;
        let line = summary_line(&report, &stats);
        assert!(line.starts_with("done=2"), "{line}");
        assert!(line.contains("p99"), "{line}");
    }
}
