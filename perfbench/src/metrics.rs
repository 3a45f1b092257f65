//! The metric tables `BENCHMARK.json` declares, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit, printed by every workload without tracing.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("artifact_cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, printed by every workload with tracing. A layer
/// the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("engine.executor.busy_s", "s"),
    ("engine.executor.utilization", "ratio"),
    ("engine.export.write_s", "s"),
    ("engine.export.bytes", "bytes"),
    ("engine.import.footer_s", "s"),
    ("engine.report.merge_s", "s"),
    ("engine.export.merged_write_s", "s"),
    ("engine.import.from_json_s", "s"),
    ("engine.import.from_jsonl_s", "s"),
    ("engine.import.bytes", "bytes"),
    ("engine.diff.between_s", "s"),
    ("core.solvability.characterize_s", "s"),
    ("core.harness.build_s", "s"),
    ("core.harness.run_s", "s"),
    ("core.harness.run_ns_per_delivered", "ns"),
    ("core.properties.check_bsm_s", "s"),
    ("matching.gale_shapley_s", "s"),
    ("crypto.digests_per_cell", "count"),
    ("crypto.verifications_per_cell", "count"),
    ("crypto.signatures_per_cell", "count"),
    ("crypto.verify_hit_ratio", "ratio"),
    ("crypto.digest_ns", "ns"),
    ("crypto.sign_ns", "ns"),
    ("crypto.verify_ns", "ns"),
    ("netsim.messages_per_cell", "count"),
    ("netsim.delivered_per_cell", "count"),
    ("netsim.slots_per_cell", "count"),
    ("netsim.delivery_ratio", "ratio"),
    ("netsim.probe_ns_per_msg", "ns"),
    ("broadcast.dolev_strong.probe_ns_per_msg", "ns"),
    ("engine.fuzz.worst_slots", "count"),
    ("engine.fuzz.worst_messages", "count"),
    ("engine.fuzz.log_bytes", "bytes"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// The metrics a run prints: per-layer when traced, end-to-end otherwise.
pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Whether `name` is a valid metric or workload name: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values collected by a run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line for `table`, taking every metric from `values`.
///
/// # Errors
///
/// Names the first metric of `table` that `values` lacks, an invalid name, or a value
/// that is not a finite number.
pub fn result_line(
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (index, (name, unit)) in table.iter().enumerate() {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let value = *values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        let separator = if index == 0 { "" } else { ", " };
        let _ =
            write!(metrics, "{separator}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

/// The result line of a run whose output checks failed.
pub fn failed_line(attempted: u64, failed: u64) -> String {
    format!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for workload in crate::Workload::ALL {
            assert!(valid_name(workload.name()));
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("a.b-c_9"));
    }

    /// The `(name, unit)` pairs of the objects in `section` of a JSON text laid out
    /// as `BENCHMARK.json` is: one `{"name": …, "unit": …}` object per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let field = |text: &str, key: &str| -> Option<String> {
            let start = text.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(text[start..].split('"').next()?.to_string())
        };
        section
            .lines()
            .filter_map(|line| {
                Some((field(line, "name")?, field(line, "unit").unwrap_or_default()))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let (head, per_layer) = text.split_once("\"per_layer\"").unwrap();
        let (workloads, end_to_end) = head.split_once("\"end_to_end\"").unwrap();
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared(end_to_end), owned(&END_TO_END));
        assert_eq!(declared(per_layer), owned(&PER_LAYER));
        let names: Vec<String> = declared(workloads).into_iter().map(|(name, _)| name).collect();
        let expected: Vec<String> =
            crate::Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn predictions_cover_every_per_layer_metric_once() {
        let text = include_str!("../predictions.json");
        for (name, _) in PER_LAYER {
            assert!(text.contains(&format!("\"{name}\": {{\"measured_on\"")), "{name}");
        }
        assert_eq!(text.matches("\"measured_on\"").count(), PER_LAYER.len());
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut values = Values::new();
        values.insert("setup_s", 0.5);
        let table = [("setup_s", "s"), ("cells_per_s", "cells/s")];
        assert_eq!(
            result_line(3, 0, &table, &values).unwrap_err(),
            "metric cells_per_s was not measured"
        );
        values.insert("cells_per_s", 1234.5);
        assert_eq!(
            result_line(3, 0, &table, &values).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"cells_per_s\": {\"value\": 1234.5, \"unit\": \
             \"cells/s\"}}}"
        );
        values.insert("cells_per_s", f64::NAN);
        assert!(result_line(3, 0, &table, &values).is_err());
    }
}
