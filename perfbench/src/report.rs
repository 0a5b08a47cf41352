//! Metric collection and the one-line JSON result.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one phase or one whole run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Operations attempted and failed (wrong answers count as failed).
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Report) {
        self.end_to_end.extend(other.end_to_end);
        self.per_layer.extend(other.per_layer);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    pub fn find(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let metrics = vec![
            Metric {
                name: "a".into(),
                value: 1.25,
                unit: "ms",
            },
            Metric {
                name: "b".into(),
                value: 3.0,
                unit: "count",
            },
        ];
        assert_eq!(
            result_json(true, 4, 0, &metrics),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
