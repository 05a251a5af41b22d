//! Metric collection and the result line.

use std::fmt::Write as _;

/// End-to-end metrics: name, unit, whether lower is better.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", true),
    ("ops_per_s", "1/s", false),
    ("peak_rss_mb", "MiB", true),
];

/// Per-layer metrics: name, unit, whether lower is better. Every traced
/// run prints all of them; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("workloads.build_s", "s", true),
    ("pipeline.baseline.ns_per_cycle", "ns", true),
    ("pipeline.baseline-ap.ns_per_cycle", "ns", true),
    ("pipeline.nda-p.ns_per_cycle", "ns", true),
    ("pipeline.nda-p-ap.ns_per_cycle", "ns", true),
    ("pipeline.stt.ns_per_cycle", "ns", true),
    ("pipeline.stt-ap.ns_per_cycle", "ns", true),
    ("pipeline.dom.ns_per_cycle", "ns", true),
    ("pipeline.dom-ap.ns_per_cycle", "ns", true),
    ("pipeline.ticked_cycles", "count", true),
    ("pipeline.elided_cycles", "count", false),
    ("pipeline.allocs_per_run", "count", true),
    ("pipeline.core_build_us", "us", true),
    ("pipeline.fetch_decode.self_s", "s", true),
    ("pipeline.dispatch.self_s", "s", true),
    ("pipeline.issue.self_s", "s", true),
    ("pipeline.execute.self_s", "s", true),
    ("pipeline.memory.self_s", "s", true),
    ("pipeline.writeback.self_s", "s", true),
    ("pipeline.commit.self_s", "s", true),
    ("pipeline.recovery.self_s", "s", true),
    ("mem.hierarchy.self_s", "s", true),
    ("mem.ns_per_access", "ns", true),
    ("sim.ckpt_plan_s", "s", true),
    ("sim.simulate_s", "s", true),
    ("serve.manifest_s", "s", true),
    ("sim.windows", "count", false),
    ("ckptstore.hits", "count", false),
    ("ckptstore.misses", "count", true),
    ("ckptstore.evictions", "count", true),
    ("ckptstore.hit_ratio", "ratio", false),
    ("isa.emu_mips", "MIPS", false),
    ("mem.warm_ns_per_access", "ns", true),
    ("predictor.train_ns_per_branch", "ns", true),
    ("core.ap_train_ns_per_load", "ns", true),
    ("host.sys_s", "s", true),
    ("host.minor_faults", "count", true),
    ("alloc.count", "count", true),
    ("alloc.mb", "MiB", true),
    ("alloc.peak_mb", "MiB", true),
    ("fuzz.gen_ms", "ms", true),
    ("fuzz.cosim_ms", "ms", true),
    ("fuzz.two_secret_ms", "ms", true),
    ("fuzz.gadget_cases", "count", false),
    ("fuzz.baseline_distinguished", "count", false),
    ("trace.overhead", "ratio", true),
    ("trace.coverage", "ratio", false),
];

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    /// Puts the metrics in `catalog` order, adding any the workload
    /// does not measure as 0. A metric outside the catalogue, or with
    /// another unit, is a bug in this program.
    pub fn complete(&mut self, catalog: &[(&str, &'static str, bool)]) {
        for (name, _, unit) in &self.entries {
            assert!(
                catalog.iter().any(|(n, u, _)| n == name && u == unit),
                "metric {name} ({unit}) is not in the catalogue"
            );
        }
        self.entries = catalog
            .iter()
            .map(|&(name, unit, _)| (name.to_owned(), self.get(name).unwrap_or(0.0), unit))
            .collect();
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric as `{"value": v, "unit": u}`. Values print with every
    /// digit Rust's shortest round-trip formatting gives; a value that
    /// is not finite would not be JSON, and is a bug in this program.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is {value}");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 12.5, "1/s");
        m.set("setup_s", 1.0, "s");
        m.set("ops_per_s", 13.25, "1/s");
        let line = m.result_line(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 13.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}}}"
        );
        assert!(dgl_stats::Json::parse(&line).is_ok());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        use dgl_stats::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, bool)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"), field("better") == "lower")
                })
                .collect();
            let ours: Vec<(String, String, bool)> = catalog
                .iter()
                .map(|&(n, u, lower)| (n.to_owned(), u.to_owned(), lower))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
