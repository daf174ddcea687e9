//! The run's result: every measured metric as a human-readable line,
//! then one JSON object as the last line of standard output.

/// End-to-end metrics printed with `--trace 0` (BENCHMARK.json
/// `end_to_end`). Each workload maps its own named metrics onto these
/// (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fps", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed with `--trace 1` (BENCHMARK.json
/// `per_layer`). A layer the workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.ns_per_px", "ns"),
    ("engine.computed_gbps", "GB/s"),
    ("engine.bw_share", "ratio"),
    ("mem.copy_gbps", "GB/s"),
    ("map.build_ms", "ms"),
    ("map.ns_per_px", "ns"),
    ("plan.compile_ms", "ms"),
    ("plan.bytes_per_px", "B"),
    ("frame.rebuild_ms", "ms"),
    ("composite.ratio_to_percam", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.gbps", "GB/s"),
    ("net.overhead_ms_p50", "ms"),
    ("net.overhead_ms_p99", "ms"),
    ("server.latency_ms_p50", "ms"),
    ("server.latency_ms_p99", "ms"),
    ("server.shed", "count"),
    ("server.degraded", "count"),
    ("server.escalations", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.compiles", "count"),
    ("cache.resident_bytes", "B"),
    ("pool.hit_ratio", "ratio"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.received", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.covered_share", "ratio"),
];

pub struct Metric {
    pub name: &'static str,
    /// The workload's own name for the value, when it differs.
    pub alias: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for counts and single readings).
    pub samples: usize,
}

#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.put_as(name, "", value, unit, samples);
    }

    pub fn put_as(
        &mut self,
        name: &'static str,
        alias: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            alias,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a failed output check; the run reports `correct: false`.
    pub fn mismatch(&mut self, what: String) {
        self.correct = false;
        self.note(format!("MISMATCH {what}"));
    }

    /// The JSON object for the regression gate: the `end_to_end` metrics, or the
    /// `per_layer` ones when `traced`.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match (self.get(name), traced) {
                (Some(v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("workload did not measure {name}")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }

    /// Human-readable lines: every metric with unit and sample count,
    /// then the notes.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let name = if m.alias.is_empty() {
                    m.name.to_string()
                } else {
                    format!("{} [{}]", m.alias, m.name)
                };
                let n = if m.samples > 0 {
                    format!("  n={}", m.samples)
                } else {
                    String::new()
                };
                format!("  {name:<40} {:>14.6} {}{n}", m.value, m.unit)
            })
            .collect();
        out.extend(self.notes.iter().map(|n| format!("  # {n}")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut o = Outcome::new();
        o.attempted = 3;
        for &(name, unit) in END_TO_END {
            o.put(name, 1.5, unit, 10);
        }
        let j = o.json(false).unwrap();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_missing_end_to_end_metric_is_an_error_but_a_missing_layer_is_zero() {
        let o = Outcome::new();
        assert!(o.json(false).is_err());
        assert!(o
            .json(true)
            .unwrap()
            .contains("\"wire.encode_us\": {\"value\": 0,"));
    }
}
