//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names, units
//! and directions; the self-tests keep the two in step.

use std::collections::BTreeMap;

/// One named metric and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("op_p50_us", "us"),
    m("op_tail_us", "us"),
    m("quality", "fraction"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not run reads 0.
pub const PER_LAYER: [Metric; 46] = [
    m("forward.schedule_rejected_us", "us"),
    m("backward.schedule_rejected_us", "us"),
    m("forward.schedule_admitted_us", "us"),
    m("backward.schedule_admitted_us", "us"),
    m("resv.commit_us", "us"),
    m("resv.rollback_us", "us"),
    m("resv.cancel_us", "us"),
    m("resv.resize_us", "us"),
    m("validate.audit_us", "us"),
    m("validate.check_us", "us"),
    m("daggen.generate_us", "us"),
    m("resv.q_estimate_us", "us"),
    m("serve.self_us", "us"),
    m("serve.decision_self_us", "us"),
    m("serve.arrival_us", "us"),
    m("serve.admitted_p50_us", "us"),
    m("serve.rejected_p50_us", "us"),
    m("serve.admit_rate", "fraction"),
    m("serve.utilization", "fraction"),
    m("serve.offered_load", "ratio"),
    m("serve.accel", "ratio"),
    m("resv.slot_queries", "count"),
    m("resv.slot_steps", "count"),
    m("resv.steps_per_query", "ratio"),
    m("resv.breakpoints_end", "count"),
    m("resv.reservations_end", "count"),
    m("backward.tightest_ms.DL_BD_CPA", "ms"),
    m("backward.tightest_ms.DL_RC_CPAR", "ms"),
    m("backward.tightest_ms.DL_RC_CPAR-L", "ms"),
    m("backward.tightest_ms.DL_RCBD_CPAR-L", "ms"),
    m("backward.schedule_loose_ms", "ms"),
    m("forward.schedule_ms", "ms"),
    m("backward.passes", "count"),
    m("cpa.allocations", "count"),
    m("cpa.mappings", "count"),
    m("workloads.synth_ms", "ms"),
    m("workloads.extract_ms", "ms"),
    m("sim.instance_ms", "ms"),
    m("sim.tightest_share", "fraction"),
    m("sim.parallel_speedup", "ratio"),
    m("sim.hybrid_degradation_pct", "%"),
    m("sim.workers", "count"),
    m("host.nproc", "count"),
    m("host.reference_ms", "ms"),
    m("trace.overhead_pct", "%"),
    m("trace.partition_gap_pct", "%"),
];

/// The metrics a run prints.
pub fn declared(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Everything one benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (arrivals or instances).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Failed checks, for the log.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Descriptive lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed check that spoiled `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.errors.push(why);
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Check that exactly the declared metrics are set and finite; a gap is
    /// an error of the benchmark itself.
    pub fn check_shape(&mut self, trace: bool) {
        let want = declared(trace);
        for metric in want {
            match self.values.get(metric.name) {
                None => self.errors.push(format!("metric {} missing", metric.name)),
                Some(v) if !v.is_finite() => {
                    self.errors.push(format!("metric {} is {v}", metric.name))
                }
                Some(_) => {}
            }
        }
        let extra: Vec<&str> = self
            .values
            .keys()
            .filter(|k| !want.iter().any(|m| m.name == **k))
            .copied()
            .collect();
        if !extra.is_empty() {
            self.errors.push(format!("undeclared metrics {extra:?}"));
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// declared metric that is set and finite, with its unit.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = declared(trace)
            .iter()
            .filter_map(|m| {
                let v = self.values.get(m.name).filter(|v| v.is_finite())?;
                Some(format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0.0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
