//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` repeats these lists (a unit test keeps
//! the two equal) and later issues cite the names, so treat a rename as
//! a format change.

use omp_json::JsonWriter;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees; measured untraced, every one for
/// every workload, none ever zero.
pub const END_TO_END: &[MetricDef] = &[
    lower("pass_ms", "ms"),
    higher("ops_per_s", "op/s"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// Single-layer numbers from the traced run. A metric a workload does
/// not exercise reads 0 there: the layer did nothing.
pub const PER_LAYER: &[MetricDef] = &[
    lower("bench.fail_ratio", "ratio"),
    lower("frontend.parse_ms", "ms"),
    lower("frontend.lower_ms", "ms"),
    lower("frontend.src_kb", "KiB"),
    lower("frontend.ir_insts", "count"),
    lower("pipeline.optimize_ms", "ms"),
    lower("pipeline.stage_ms.early-inline", "ms"),
    lower("pipeline.stage_ms.openmp-opt", "ms"),
    lower("pipeline.stage_ms.late-inline", "ms"),
    lower("pipeline.stage_ms.cleanup", "ms"),
    lower("pipeline.stage_ms.gvn", "ms"),
    lower("pipeline.stage_ms.licm", "ms"),
    lower("pipeline.build_ms.proxies", "ms"),
    lower("pipeline.build_ms.examples", "ms"),
    lower("pipeline.build_ms.gen_small", "ms"),
    lower("pipeline.build_ms.gen_large", "ms"),
    lower("pipeline.ir_insts_out", "count"),
    higher("openmp-opt.applied.heap_to_stack", "count"),
    higher("openmp-opt.applied.heap_to_shared", "count"),
    higher("openmp-opt.applied.spmdized", "count"),
    higher("openmp-opt.applied.csm_rewritten", "count"),
    higher("openmp-opt.applied.folds", "count"),
    higher("openmp-opt.remarks", "count"),
    lower("ir.verify_ms", "ms"),
    lower("ir.print_ms", "ms"),
    lower("gpusim.plan_build_ms", "ms"),
    lower("gpusim.device_new_ms", "ms"),
    lower("gpusim.reset_ms", "ms"),
    lower("gpusim.prepare_ms", "ms"),
    lower("gpusim.readback_ms", "ms"),
    lower("gpusim.launch_ms", "ms"),
    lower("gpusim.launch_ms.XSBench", "ms"),
    lower("gpusim.launch_ms.RSBench", "ms"),
    lower("gpusim.launch_ms.SU3Bench", "ms"),
    lower("gpusim.launch_ms.miniQMC", "ms"),
    lower("gpusim.profiled_launch_ms", "ms"),
    lower("gpusim.sanitized_launch_ms", "ms"),
    lower("gpusim.sim_cycles", "cycles"),
    lower("gpusim.insts", "count"),
    higher("gpusim.minst_per_s", "Minst/s"),
    lower("gpusim.ns_per_inst.compiled", "ns"),
    lower("gpusim.ns_per_inst.interp", "ns"),
    lower("gpusim.rtl_calls", "count"),
    higher("gpusim.fused_step_ratio", "ratio"),
    lower("gpusim.jobs1_launch_ms", "ms"),
    higher("gpusim.jobs_speedup", "ratio"),
    higher("gpusim.workers", "count"),
    higher("host.cpus", "count"),
    lower("gpusim.cycles_ratio.dev_vs_cuda", "ratio"),
    lower("gpusim.smem_bytes", "B"),
    lower("gpusim.capture_us", "us"),
    lower("gpusim.eager_chain_ms", "ms"),
    lower("gpusim.replay_chain_ms", "ms"),
    lower("gpusim.eager_chain_ms.jobs1", "ms"),
    lower("gpusim.launch_fixed_us", "us"),
    higher("gpusim.replay_speedup", "ratio"),
    lower("serve.request_ms.run", "ms"),
    lower("serve.request_ms.compile", "ms"),
    lower("serve.request_ms.profile", "ms"),
    lower("serve.request_ms.sanitize", "ms"),
    lower("serve.request_ms.verify", "ms"),
    lower("serve.request_ms_p99", "ms"),
    lower("serve.service_ms", "ms"),
    lower("serve.wire_queue_ms", "ms"),
    lower("serve.queue_ms_p50", "ms"),
    lower("serve.service_ms_p50", "ms"),
    higher("serve.hit_ratio.frontend", "ratio"),
    higher("serve.hit_ratio.optimized", "ratio"),
    higher("serve.hit_ratio.device", "ratio"),
    higher("serve.hit_ratio.graphs", "ratio"),
    lower("serve.device_entries", "count"),
    lower("serve.shed", "count"),
    lower("serve.timeout", "count"),
    lower("serve.panic", "count"),
    lower("serve.reply_kb", "KiB"),
    lower("json.parse_ms", "ms"),
    lower("telemetry.trace_overhead", "ratio"),
    lower("telemetry.spans", "count"),
    lower("bench.traced_pass_ms", "ms"),
    higher("bench.layer_coverage", "ratio"),
    higher("bench.own_layer_share", "ratio"),
];

/// Metric values by catalogue name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be in the catalogue: a
    /// misspelt name would otherwise vanish from the report.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.0.insert(def.name, value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let sum = self.get(name) + value;
        self.set(name, sum);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Copies every value of `other` in, replacing equal names.
    pub fn merge(&mut self, other: &Values) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }
}

/// The result line the contract asks for: `correct`, `attempted`,
/// `failed`, and every metric of `defs` with its unit.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let mut w = JsonWriter::with_capacity(256 + 64 * defs.len());
    w.begin_object();
    w.key("correct").bool(failed == 0);
    w.key("attempted").u64(attempted);
    w.key("failed").u64(failed);
    w.key("metrics").begin_object();
    for d in defs {
        w.key(d.name).begin_object();
        w.key("value").f64(values.get(d.name));
        w.key("unit").string(d.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// One aligned `name value unit` row per metric, skipping per-layer
/// metrics the workload did not touch.
pub fn table(defs: &[MetricDef], values: &Values, skip_zero: bool) -> String {
    let mut out = String::new();
    for d in defs {
        let v = values.get(d.name);
        if skip_zero && v == 0.0 {
            continue;
        }
        out += &format!(
            "  {:<36} {:>16.4} {:<8} {} is better\n",
            d.name, v, d.unit, d.better
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_json::Value;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::default();
        v.set("pass_ms", 1.25);
        let line = result_line(END_TO_END, &v, 10, 0);
        let parsed = omp_json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let pass = parsed.get("metrics").unwrap().get("pass_ms").unwrap();
        assert_eq!(pass.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(pass.get("unit").and_then(Value::as_str), Some("ms"));
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what
    /// the binary prints. They must list the same metrics.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = omp_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
