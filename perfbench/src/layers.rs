//! Per-layer metrics of the traced pass.
//!
//! [`PER_LAYER`] is the one list of per-layer metric names and units; every
//! traced run emits all of them, so a layer a workload does not exercise
//! reads 0. The `self.*_pct` shares split the traced wall time (the sum of
//! the run's top-level spans) into layer self times; `unattributed_pct` is
//! what no layer accounts for, so the shares and it sum to 100.

use std::collections::BTreeMap;

use crate::report::Report;
use crate::trace::{top_level_ns, totals, Span};

/// Every per-layer metric, `(name, unit)`, in emission order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("weather.tmy_ms", "ms"),
    ("modeler.train_ms", "ms"),
    ("model.predict_ns", "ns"),
    ("model.predict_calls", "count"),
    ("optimizer.select_us", "us"),
    ("optimizer.select_calls", "count"),
    ("optimizer.memo_hit_ratio", "ratio"),
    ("controller.decide_us", "us"),
    ("controller.decide_calls", "count"),
    ("engine.day_us", "us"),
    ("engine.self_us", "us"),
    ("plant.step_ns", "ns"),
    ("plant.step_calls", "count"),
    ("episode.create_ms", "ms"),
    ("episode.step_us", "us"),
    ("serve.step_handle_us", "us"),
    ("serve.create_handle_ms", "ms"),
    ("serve.metrics_handle_us", "us"),
    ("serve.step_transport_us", "us"),
    ("serve.days_per_s", "1/s"),
    ("serve.requests", "count"),
    ("serve.non2xx", "count"),
    ("step.p50_us", "us"),
    ("step.p99_us", "us"),
    ("probe.p99_us", "us"),
    ("probe.late_p99_us", "us"),
    ("probe.count", "count"),
    ("runner.jobs_done", "count"),
    ("runner.jobs_failed", "count"),
    ("runner.resumed", "count"),
    ("runner.resume_ms", "ms"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.bytes", "bytes"),
    ("sweep.ms", "ms"),
    ("fleet.ms", "ms"),
    ("fleet.lanes", "count"),
    ("tune.ms", "ms"),
    ("tune.memo_hit_ratio", "ratio"),
    ("learn.ms", "ms"),
    ("learn.memo_hit_ratio", "ratio"),
    ("learn.rollouts", "count"),
    ("self.weather_pct", "%"),
    ("self.modeler_pct", "%"),
    ("self.annual_pct", "%"),
    ("self.engine_pct", "%"),
    ("self.manager_pct", "%"),
    ("self.ml_pct", "%"),
    ("self.thermal_pct", "%"),
    ("self.daemon_pct", "%"),
    ("self.serve_handle_pct", "%"),
    ("self.serve_transport_pct", "%"),
    ("self.episode_pct", "%"),
    ("self.runner_pct", "%"),
    ("self.store_pct", "%"),
    ("self.sweep_pct", "%"),
    ("self.fleet_pct", "%"),
    ("self.tune_pct", "%"),
    ("self.learn_pct", "%"),
    ("self.resumed_pct", "%"),
    ("unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("process.peak_rss_mb", "MB"),
];

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Collects one traced run's per-layer values.
#[derive(Debug)]
pub struct Layers {
    wall_ns: u64,
    totals: BTreeMap<&'static str, (u64, u64)>,
    values: BTreeMap<&'static str, f64>,
    shared_ns: u64,
}

impl Layers {
    /// Starts from the run's spans; the traced wall time is the sum of
    /// the top-level spans.
    #[must_use]
    pub fn new(spans: &[Span]) -> Self {
        Layers {
            wall_ns: top_level_ns(spans),
            totals: totals(spans),
            values: BTreeMap::new(),
            shared_ns: 0,
        }
    }

    /// Sets a metric (must be in [`PER_LAYER`]).
    ///
    /// # Panics
    ///
    /// On an undeclared name — a programming error caught by the tests.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Spans named `name`: how many.
    #[must_use]
    pub fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Spans named `name`: total nanoseconds.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Spans named `name`: mean milliseconds (0 with no span).
    #[must_use]
    pub fn mean_ms(&self, name: &str) -> f64 {
        ratio(self.total_ns(name), self.calls(name)) / 1e6
    }

    /// Spans named `name`: mean microseconds (0 with no span).
    #[must_use]
    pub fn mean_us(&self, name: &str) -> f64 {
        ratio(self.total_ns(name), self.calls(name)) / 1e3
    }

    /// Attributes `ns` of the traced wall time to the layer share `name`.
    pub fn share(&mut self, name: &'static str, ns: u64) {
        self.shared_ns += ns;
        self.set(name, 100.0 * ratio(ns, self.wall_ns));
    }

    /// Adds `unattributed_pct`, `trace.overhead_pct` (traced against
    /// untraced wall time of the same work) and `process.peak_rss_mb` (the
    /// process's peak resident set so far, which includes the tracer's
    /// span buffer), then emits every [`PER_LAYER`] metric into `report`.
    pub fn finish(mut self, report: &mut Report, untraced_s: f64, traced_s: f64) {
        let rest = self.wall_ns as f64 - self.shared_ns as f64;
        self.set(
            "unattributed_pct",
            100.0 * rest / (self.wall_ns.max(1) as f64),
        );
        self.set(
            "trace.overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
        );
        self.set(
            "process.peak_rss_mb",
            crate::stats::peak_rss_mb().unwrap_or(0.0),
        );
        for (name, unit) in PER_LAYER {
            report.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_unattributed_sum_to_one_hundred() {
        let spans = vec![Span {
            id: 1,
            parent: 0,
            request: 1,
            name: "round",
            start_ns: 0,
            end_ns: 1000,
        }];
        let mut l = Layers::new(&spans);
        l.share("self.engine_pct", 600);
        l.share("self.thermal_pct", 300);
        let mut report = Report::default();
        l.finish(&mut report, 2.0, 2.5);
        let get = |n: &str| report.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("self.engine_pct"), 60.0);
        assert_eq!(get("unattributed_pct"), 10.0);
        assert_eq!(get("trace.overhead_pct"), 25.0);
        assert_eq!(get("serve.requests"), 0.0);
        assert_eq!(report.metrics.len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_names_are_refused() {
        Layers::new(&[]).set("nope", 1.0);
    }
}
