//! Metric names, units and the result line.

use crate::stats::valid_metric_name;

/// End-to-end metrics (`--trace 0`), name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("stmts_per_s", "1/s"),
    ("stmt_p50_us", "us"),
    ("write_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.rtt_us", "us"),
    ("server.stmt_p99_us", "us"),
    ("server.write_p99_us", "us"),
    ("server.outside_core_us", "us"),
    ("server.codec_us", "us"),
    ("server.resp_bytes", "bytes"),
    ("core.execute_us", "us"),
    ("core.unattributed_us", "us"),
    ("core.template_lookup_us", "us"),
    ("core.concrete_lookup_us", "us"),
    ("core.trace_record_us", "us"),
    ("core.trace_record_share", "ratio"),
    ("core.trace_facts", "count"),
    ("core.template_hit_ratio", "ratio"),
    ("core.negative_hit_ratio", "ratio"),
    ("core.session_hit_ratio", "ratio"),
    ("core.template_proofs_per_kstmt", "count/kstmt"),
    ("core.concrete_proofs_per_kstmt", "count/kstmt"),
    ("core.plan_evictions_per_kstmt", "count/kstmt"),
    ("core.write_allowed_per_kstmt", "count/kstmt"),
    ("core.write_blocked_per_kstmt", "count/kstmt"),
    ("core.mem.plan_cache_kb", "KiB"),
    ("core.mem.session_state_kb", "KiB"),
    ("core.mem.journal_kb", "KiB"),
    ("sqlir.parse_us", "us"),
    ("qlogic.proof_us", "us"),
    ("qlogic.proof_p99_us", "us"),
    ("qlogic.hom_nodes_per_stmt", "count"),
    ("qlogic.rewrite_iterations_per_stmt", "count"),
    ("qlogic.containment_checks_per_stmt", "count"),
    ("qlogic.cert_fallback_ratio", "ratio"),
    ("minidb.exec_us", "us"),
    ("minidb.exec_p99_us", "us"),
    ("minidb.exec_share", "ratio"),
    ("minidb.rows_per_stmt", "count"),
    ("client.self_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Prints `name  value unit` rows for a human reader.
pub fn print_table(title: &str, values: &[(&'static str, f64)], units: &[(&str, &str)]) {
    println!("{title}");
    for (name, value) in values {
        println!("  {name:<36} {value:>14.4} {}", unit_of(name, units));
    }
}

fn unit_of<'a>(name: &str, units: &[(&str, &'a str)]) -> &'a str {
    units
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("every reported metric is declared")
}

/// The final result line: exactly the declared metrics, in order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&'static str, f64)],
    units: &[(&str, &str)],
) -> String {
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .expect("every declared metric is measured");
            assert!(valid_metric_name(name), "{name} is not a valid metric name");
            assert!(value.is_finite(), "{name} is not a number: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_declared_metrics_in_order() {
        let units = [("a_us", "us"), ("b", "1/s")];
        let line = result_line(true, 3, 0, &[("b", 2.5), ("a_us", 0.125)], &units);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 0.125, \"unit\": \"us\"}, \
             \"b\": {\"value\": 2.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn declared_metrics_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
