//! The metrics a run reports, the timing loops that produce the per-layer
//! ones, and the one JSON line a run ends with.

use crate::stats;
use crate::trace::{SpanId, Tracer};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics so far, and the span store when this is the traced binary.
pub struct Ledger {
    /// Zero of every span and exchange time.
    pub epoch: Instant,
    pub metrics: Vec<Metric>,
    pub tracer: Option<Tracer>,
    pub attempted: u64,
    pub failed: u64,
}

/// A timing loop stops at its caller's call limit or after this much time,
/// whichever is first, but makes at least [`MIN_CALLS`] calls.
const CALL_BUDGET: Duration = Duration::from_millis(100);
const MIN_CALLS: usize = 3;
/// Call limit for calls that take microseconds.
pub const MANY: usize = 2000;

impl Ledger {
    pub fn new(traced: bool) -> Self {
        let epoch = Instant::now();
        Ledger {
            epoch,
            metrics: Vec::new(),
            tracer: traced.then(|| Tracer::new(epoch)),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "{name} is {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not measured yet"))
            .value
    }

    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        self.tracer.as_mut().map(|t| t.open(name, parent))
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.close(id);
        }
    }

    /// Time each call of `f` on its own, one span per call; returns the
    /// durations in nanoseconds. `prepare` makes the call's input and runs
    /// outside the timed region, as does dropping what `f` returns.
    pub fn time_calls<S, R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        max_calls: usize,
        mut prepare: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> Vec<u64> {
        let span_name: Arc<str> = Arc::from(name);
        let began = Instant::now();
        let mut durations = Vec::new();
        while durations.len() < MIN_CALLS
            || (durations.len() < max_calls && began.elapsed() < CALL_BUDGET)
        {
            let input = prepare();
            let t = Instant::now();
            let kept = std::hint::black_box(f(std::hint::black_box(input)));
            let end = Instant::now();
            drop(kept);
            durations.push((end - t).as_nanos() as u64);
            if let Some(tr) = self.tracer.as_mut() {
                let start_ns = (t - tr.epoch).as_nanos() as u64;
                let end_ns = (end - tr.epoch).as_nanos() as u64;
                tr.add(
                    &span_name,
                    start_ns,
                    end_ns,
                    parent,
                    Some(durations.len() as u64 - 1),
                );
            }
        }
        durations
    }

    /// For calls too short to time singly: time batches of `per_batch` calls,
    /// one span per batch; returns the median nanoseconds per call.
    pub fn time_batches(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        per_batch: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let batches = self.time_calls(
            &format!("{name} x{per_batch}"),
            parent,
            MANY,
            || (),
            |()| {
                for _ in 0..per_batch {
                    f();
                }
            },
        );
        stats::percentile_of(&batches, 0.5) as f64 / per_batch as f64
    }

    /// The line the driver reads: last on standard output.
    pub fn to_json(&self, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_full_precision() {
        let mut l = Ledger::new(false);
        l.attempted = 12;
        l.put("setup_s", 0.1234567891, "s");
        l.put("sat_req_per_s", 5036.0, "req/s");
        let line = l.to_json(true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.1234567891, \"unit\": \"s\"}, \
             \"sat_req_per_s\": {\"value\": 5036, \"unit\": \"req/s\"}}}"
        );
        assert!(sledge_core::parse_json(&line).is_ok());
    }

    #[test]
    fn timing_loops_record_one_span_per_call_only_when_traced() {
        let mut traced = Ledger::new(true);
        let root = traced.open("layers", None);
        let calls = traced.time_calls("noop", root, 10, || (), |()| ());
        assert!((MIN_CALLS..=10).contains(&calls.len()));
        assert_eq!(traced.tracer.as_ref().unwrap().len(), 1 + calls.len());
        let per_call = traced.time_batches("noop", root, 100, || ());
        assert!(per_call >= 0.0);

        let mut untraced = Ledger::new(false);
        assert_eq!(untraced.open("layers", None), None);
        untraced.time_calls("noop", None, 10, || (), |()| ());
        assert!(untraced.tracer.is_none());
    }
}
