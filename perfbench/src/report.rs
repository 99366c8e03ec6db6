//! What a run reports: the metric catalogue (names and units as listed in
//! `BENCHMARK.json`), the outcome every workload fills in, and the two
//! renderings — a human-readable table and the one-line JSON result.

use sbu_obs::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.apply_ns_p50", "ns"),
    ("core.apply_ns_p99", "ns"),
    ("core.frontier_hit_per_op", "1/op"),
    ("core.frontier_fallback_per_op", "1/op"),
    ("core.grab_retry_per_op", "1/op"),
    ("core.backoff_spins_per_op", "1/op"),
    ("core.combine_batch_mean", "cells"),
    ("core.batch_size_mean", "ops"),
    ("mem.cas_retry_per_op", "1/op"),
    ("shard.apply_ns_p50", "ns"),
    ("shard.materialize_us_per_key", "us/key"),
    ("shard.bytes_per_key", "B/key"),
    ("wire.request_encode_ns", "ns"),
    ("wire.request_decode_ns", "ns"),
    ("wire.response_encode_ns", "ns"),
    ("wire.response_decode_ns", "ns"),
    ("wire.bytes_per_op", "B/op"),
    ("client.call_us_p50", "us"),
    ("client.call_us_p99", "us"),
    ("service.residual_us", "us"),
    ("service.queue_depth_mean", "frames"),
    ("service.batch_size_mean", "ops"),
    ("service.dedup_hit_per_op", "1/op"),
    ("service.shed_per_op", "1/op"),
    ("service.read_syscall_per_op", "1/op"),
    ("service.partial_frame_per_op", "1/op"),
    ("service.conn_drop", "count"),
    ("service.retry_per_op", "1/op"),
    ("service.goodput_ratio", "ratio"),
    ("service.stale_reply_per_op", "1/op"),
    ("service.garbled_per_op", "1/op"),
    ("service.inject_per_op", "1/op"),
    ("proc.user_us_per_op", "us/op"),
    ("proc.sys_us_per_op", "us/op"),
    ("proc.ctx_switches_per_op", "1/op"),
    ("driver.gen_lag_p99_us", "us"),
    ("driver.tracing_overhead_frac", "frac"),
    ("driver.latency_samples", "count"),
    ("failed_frac", "frac"),
];

/// A measured value, or why there is none ("n/a (reason)").
pub type Value = Result<f64, String>;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
    /// Operations the check found wrong (counted as failed ops).
    pub wrong_ops: u64,
}

impl Check {
    pub fn new(name: &str, passed: bool, detail: String, wrong_ops: u64) -> Self {
        Self {
            name: name.into(),
            passed,
            detail,
            wrong_ops: if passed { 0 } else { wrong_ops.max(1) },
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Value>,
    /// Operations issued (set-up, timed window and read-back).
    pub attempted: u64,
    /// Operations that ended in a typed error, a panic or a hang.
    pub failed_ops: u64,
    /// Named failure causes with their counts.
    pub causes: BTreeMap<String, u64>,
    pub checks: Vec<Check>,
    /// Whether a panic escaped into the program under test.
    pub program_fault: bool,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Ok(value));
    }

    pub fn na(&mut self, name: &'static str, reason: impl Into<String>) {
        self.metrics.insert(name, Err(reason.into()));
    }

    pub fn fail(&mut self, cause: impl Into<String>, ops: u64) {
        self.failed_ops += ops;
        *self.causes.entry(cause.into()).or_default() += ops;
    }

    /// Failed operations plus those the output checks found wrong.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.checks.iter().map(|c| c.wrong_ops).sum::<u64>()
    }

    pub fn correct(&self) -> bool {
        !self.program_fault && self.checks.iter().all(|c| c.passed)
    }
}

fn render_value(value: &Value) -> String {
    match value {
        Ok(v) if *v != 0.0 && v.abs() < 0.01 => format!("{v:.3e}"),
        Ok(v) => format!("{v:.4}"),
        Err(reason) => format!("n/a ({reason})"),
    }
}

/// The human-readable table for `catalogue`.
pub fn table(title: &str, catalogue: &[(&str, &str)], outcome: &Outcome) -> String {
    let mut out = format!("{title}\n");
    for (name, unit) in catalogue {
        let value = outcome
            .metrics
            .get(name)
            .cloned()
            .unwrap_or_else(|| Err("measured by the traced run".into()));
        out.push_str(&format!(
            "  {name:<32} {:>24} {unit}\n",
            render_value(&value)
        ));
    }
    out
}

/// The final result line: one JSON object on one line. A metric without a
/// value reports 0 here; the table above it names the reason.
pub fn result_line(catalogue: &[(&str, &str)], outcome: &Outcome) -> String {
    let metrics = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).cloned().unwrap_or(Ok(0.0));
            let entry = Json::obj(vec![
                ("value", Json::Num(value.unwrap_or(0.0))),
                ("unit", Json::Str(unit.to_string())),
            ]);
            (*name, entry)
        })
        .collect();
    let doc = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed() as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    one_line(&doc)
}

/// `Json::render` without its indentation and line breaks (strings never
/// hold a raw newline, so joining trimmed lines is lossless).
pub fn one_line(doc: &Json) -> String {
    doc.render()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_and_carries_every_metric() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        o.na("latency_p99_us", "test");
        o.fail("boom", 2);
        let line = result_line(END_TO_END, &o);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(2.0));
        let m = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(
                m.get(name).unwrap().get("unit").unwrap().as_str(),
                Some(*unit)
            );
        }
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_num(),
            Some(0.5)
        );
    }

    #[test]
    fn failed_checks_count_as_failed_ops() {
        let mut o = Outcome::default();
        o.checks
            .push(Check::new("sum", false, "off by 3".into(), 3));
        o.checks.push(Check::new("ok", true, String::new(), 5));
        assert_eq!(o.failed(), 3);
        assert!(!o.correct());
    }
}
