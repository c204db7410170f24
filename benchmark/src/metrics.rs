//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same metrics; a unit test keeps the
//! two identical.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees; every workload reports all of them.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("throughput_qps", "1/s", "higher", 0.25),
    e2e("latency_geomean_ms", "ms", "lower", 0.25),
    e2e("latency_p90_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single layers, measured by the traced run from outside.
pub const PER_LAYER: [MetricDef; 61] = [
    layer("workloads.datagen_rows_per_s", "1/s", "higher"),
    layer("workloads.plan_build_us", "us", "lower"),
    layer("columnar.window_access_ns", "ns", "lower"),
    layer("columnar.typed_cache_hits_per_pass", "count", "lower"),
    layer("operators.select_rows_per_s", "1/s", "higher"),
    layer("operators.select_cand_rows_per_s", "1/s", "higher"),
    layer("operators.fetch_rows_per_s", "1/s", "higher"),
    layer("operators.calc_rows_per_s", "1/s", "higher"),
    layer("operators.scalar_agg_rows_per_s", "1/s", "higher"),
    layer("operators.grouped_agg_rows_per_s", "1/s", "higher"),
    layer("operators.hash_build_rows_per_s", "1/s", "higher"),
    layer("operators.hash_probe_rows_per_s", "1/s", "higher"),
    layer("operators.pack_rows_per_s", "1/s", "higher"),
    layer("interpreter.serial_geomean_ms", "ms", "lower"),
    layer("interpreter.share.select", "ratio", "lower"),
    layer("interpreter.share.join", "ratio", "lower"),
    layer("interpreter.share.calc", "ratio", "lower"),
    layer("interpreter.share.fetch", "ratio", "lower"),
    layer("interpreter.share.agg", "ratio", "lower"),
    layer("interpreter.share.other", "ratio", "lower"),
    layer("executor.oat_w1_geomean_ms", "ms", "lower"),
    layer("executor.oat_overhead_ratio", "ratio", "lower"),
    layer("executor.profile_gap_ratio", "ratio", "lower"),
    layer("executor.busy_ratio", "ratio", "higher"),
    layer("pipeline.morsel_w1_geomean_ms", "ms", "lower"),
    layer("pipeline.fusion_gain_ratio", "ratio", "higher"),
    layer("pipeline.morsels_per_pass", "count", "lower"),
    layer("pipeline.fused_groupagg_pipelines", "count", "higher"),
    layer("scheduler.parallel_efficiency", "ratio", "higher"),
    layer("scheduler.stealing_vs_global_ratio", "ratio", "higher"),
    layer("scheduler.tasks_per_pass", "count", "lower"),
    layer("scheduler.steals_per_pass", "count", "lower"),
    layer("scheduler.locality", "ratio", "higher"),
    layer("scheduler.queue_wait_share", "ratio", "lower"),
    layer("service.overhead_us", "us", "lower"),
    layer("service.mean_admit_dop", "count", "higher"),
    layer("service.plan_cache_hit_ratio", "ratio", "higher"),
    layer("service.hit_latency_us", "us", "lower"),
    layer("service.result_cache_hit_ratio", "ratio", "higher"),
    layer("service.invalidate_us", "us", "lower"),
    layer("service.shed", "count", "lower"),
    layer("service.timed_out", "count", "lower"),
    layer("sharing.shared_morsel_ratio", "ratio", "higher"),
    layer("sharing.partials_reused", "count", "higher"),
    layer("sharing.on_vs_off_qps_ratio", "ratio", "higher"),
    layer("core.converge_s", "s", "lower"),
    layer("core.speedup_vs_serial", "ratio", "higher"),
    layer("core.runs_per_episode", "count", "lower"),
    layer("core.optimizer_overhead_ratio", "ratio", "lower"),
    layer("core.mutate_us", "us", "lower"),
    layer("core.best_plan_nodes", "count", "lower"),
    layer("core.speedup_vs_heuristic", "ratio", "higher"),
    layer("baselines.heuristic_plan_us", "us", "lower"),
    layer("selftime.service_ms", "ms", "lower"),
    layer("selftime.engine_ms", "ms", "lower"),
    layer("selftime.operators_ms", "ms", "lower"),
    layer("selftime.core_ms", "ms", "lower"),
    layer("trace.child_overhang_worst_ratio", "ratio", "lower"),
    layer("trace.wall_excess_worst_ratio", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("trace_overhead_ratio", "ratio", "higher"),
];

/// Why each workload exists (also the `why` of `BENCHMARK.json`).
pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        "tpch_isolated",
        "one client on the bare engine, sf 1: kernels, pipeline fusion and intra-query scheduling do the work; service, caches and sharing do none",
    ),
    (
        "tpch_concurrent",
        "closed-loop clients on the service with the result cache off, sf 1: admission, per-session FIFO and inter-query scheduling matter; every query executes",
    ),
    (
        "adaptive_convergence",
        "the paper's adaptive loop on the operator-at-a-time engine, sf 0.25: mutation, convergence and many small partitioned operators; no pipelines, service or caches",
    ),
    (
        "dashboard_repeat",
        "256 Zipf-popular Q6 variants over a 128-entry result cache with one invalidation per round, sf 1: caches, sharing and invalidation matter; kernels run only on misses",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` sits at the repository root, one level above this
    /// package; the two lists must not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed = doc.get("end_to_end").unwrap().as_array();
        assert_eq!(listed.len(), END_TO_END.len());
        for (json, def) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(json, "name"), def.name);
            assert_eq!(field(json, "unit"), def.unit);
            assert_eq!(field(json, "better"), def.better);
            assert_eq!(json.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let listed = doc.get("per_layer").unwrap().as_array();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (json, def) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(json, "name"), def.name);
            assert_eq!(field(json, "unit"), def.unit);
            assert_eq!(field(json, "better"), def.better);
        }
        let listed = doc.get("workloads").unwrap().as_array();
        assert_eq!(listed.len(), WORKLOAD_WHY.len());
        for (json, (name, why)) in listed.iter().zip(WORKLOAD_WHY) {
            assert_eq!(field(json, "name"), name);
            assert_eq!(field(json, "why"), why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        assert!(names
            .iter()
            .all(|n| n.len() <= 64
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
