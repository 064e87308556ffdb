//! What a workload run produces, and the one JSON result line it prints last.

use std::collections::BTreeMap;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Attempts, failures and metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records `failed` failures among `attempted` operations, printing
    /// `what` when any failed.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            println!("FAILED {what}: {failed} of {attempted}");
        }
    }

    /// Records one check as one attempt.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.count(what, 1, u64::from(!ok));
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A run is correct when nothing failed and every metric is finite.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let by_name: BTreeMap<&str, &Metric> = self.metrics.iter().map(|m| (m.name, m)).collect();
        let metrics: Vec<String> = by_name
            .values()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:e}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut o = Outcome::default();
        o.check("a", true);
        o.push("b_ms", 1.5, "ms");
        o.push("a_s", 0.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 2.5e-1, \"unit\": \"s\"}, \
             \"b_ms\": {\"value\": 1.5e0, \"unit\": \"ms\"}}}"
        );
        o.check("c", false);
        o.push("nan", f64::NAN, "ms");
        assert!(o
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(o.to_json().contains("\"value\": null"));
    }
}
