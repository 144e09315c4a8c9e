//! The run's result: operation counts, output checks, metrics, and the
//! one-line JSON the command prints last.

use std::fmt::Write as _;

/// The end-to-end figures, one per entry of [`crate::END_TO_END`], that
/// every workload reports from its untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Median wall time of one round of the timed phase, seconds.
    pub round_s: f64,
    /// Inlet degree-minutes above the limit, summed over the first
    /// round's simulation.
    pub violation_cmin: f64,
    /// Cooling plus IT energy of the first round's simulation, kWh.
    pub energy_kwh: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (workload calls plus output checks).
    pub attempted: u64,
    /// Operations that failed (including failed output checks).
    pub failed: u64,
    /// One message per failed operation or check.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records one output check: an `Err` is a failed operation.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(1),
            Err(why) => self.fail(format!("check {name}: {why}")),
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds the end-to-end metrics, in [`crate::END_TO_END`] order.
    pub fn end_to_end(&mut self, e: &EndToEnd) {
        let values = [
            e.setup_s,
            e.round_s,
            e.violation_cmin,
            e.energy_kwh,
        ];
        for (&(name, unit), value) in crate::END_TO_END.iter().zip(values) {
            self.metric(name, value, unit);
        }
    }

    /// `true` when nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// Non-finite values (which no metric should produce) print as `null`
    /// so the line stays valid JSON and the consumer rejects it.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
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
    fn json_line_has_the_fixed_keys_and_full_precision() {
        let mut r = Report::default();
        r.ok(3);
        r.metric("latency_ms", 1.203_456_789, "ms");
        r.metric("count", 2.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": \
             {\"value\": 1.203456789, \"unit\": \"ms\"}, \"count\": {\"value\": 2.0, \"unit\": \
             \"count\"}}}"
        );
        r.check("x", Err("bad".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (4, 1));
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
