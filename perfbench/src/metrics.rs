//! Every metric the benchmark reports, with its unit — the same lists as
//! `BENCHMARK.json`. Host-clock names end in `_s`, `_per_s` or `_MBps`;
//! simulated-clock names end in `_sim_ns` (unit `sim_ns`).

/// End-to-end metrics: every workload reports every one (untraced run).
pub const E2E: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ser_MBps", "MB/s"),
    ("de_MBps", "MB/s"),
    ("small_rt_per_s", "1/s"),
    ("sim_uops_per_s", "1/s"),
    ("accel_sd_sim_ns", "sim_ns"),
    ("makespan_sim_ns", "sim_ns"),
    ("job_p50_sim_ns", "sim_ns"),
    ("job_p99_sim_ns", "sim_ns"),
    ("tasks_per_s", "1/s"),
];

pub fn is_e2e(name: &str) -> bool {
    E2E.iter().any(|m| m.0 == name)
}

/// Per-layer metrics (traced run). A layer a workload never calls
/// reads 0 there.
pub const LAYERS: &[(&str, &str)] = &[
    ("serializers.java.ser_s", "s"),
    ("serializers.java.de_s", "s"),
    ("serializers.java.stream_bytes", "B"),
    ("serializers.kryo.ser_s", "s"),
    ("serializers.kryo.de_s", "s"),
    ("serializers.kryo.stream_bytes", "B"),
    ("serializers.skyway.ser_s", "s"),
    ("serializers.skyway.de_s", "s"),
    ("serializers.skyway.stream_bytes", "B"),
    ("serializers.protolike.ser_s", "s"),
    ("serializers.protolike.de_s", "s"),
    ("serializers.protolike.stream_bytes", "B"),
    ("serializers.jsonlike.ser_s", "s"),
    ("serializers.jsonlike.de_s", "s"),
    ("serializers.jsonlike.stream_bytes", "B"),
    ("serializers.archive.ser_s", "s"),
    ("serializers.archive.de_s", "s"),
    ("serializers.archive.stream_bytes", "B"),
    ("serializers.archive.validate_s", "s"),
    ("serializers.cereal_fn.ser_s", "s"),
    ("serializers.cereal_fn.de_s", "s"),
    ("serializers.cereal_fn.stream_bytes", "B"),
    ("heap.build_s", "s"),
    ("heap.fold_s", "s"),
    ("sim.cpu.self_s", "s"),
    ("sim.java.ser_s", "s"),
    ("sim.java.de_s", "s"),
    ("sim.java.ser_sim_ns", "sim_ns"),
    ("sim.java.de_sim_ns", "sim_ns"),
    ("sim.kryo.ser_s", "s"),
    ("sim.kryo.de_s", "s"),
    ("sim.kryo.ser_sim_ns", "sim_ns"),
    ("sim.kryo.de_sim_ns", "sim_ns"),
    ("sim.skyway.ser_s", "s"),
    ("sim.skyway.de_s", "s"),
    ("sim.skyway.ser_sim_ns", "sim_ns"),
    ("sim.skyway.de_sim_ns", "sim_ns"),
    ("sim.cpu.uops", "count"),
    ("sim.cpu.ipc", "ratio"),
    ("sim.cpu.llc_miss_rate", "ratio"),
    ("sim.cpu.dram_bytes", "B"),
    ("core.accel.paper.ser_s", "s"),
    ("core.accel.paper.de_s", "s"),
    ("core.accel.paper.ser_sim_ns", "sim_ns"),
    ("core.accel.paper.de_sim_ns", "sim_ns"),
    ("core.accel.vanilla.ser_s", "s"),
    ("core.accel.vanilla.de_s", "s"),
    ("core.accel.vanilla.ser_sim_ns", "sim_ns"),
    ("core.accel.vanilla.de_sim_ns", "sim_ns"),
    ("core.accel.bw_util", "ratio"),
    ("shuffle.run_backend_s", "s"),
    ("shuffle.map_s", "s"),
    ("shuffle.reduce_s", "s"),
    ("shuffle.compose_s", "s"),
    ("format.frame.verify_s", "s"),
    ("store.build_part_s", "s"),
    ("store.rdd_s", "s"),
    ("shuffle.messages", "count"),
    ("shuffle.wire_bytes", "B"),
    ("shuffle.ser_busy_sim_ns", "sim_ns"),
    ("shuffle.de_busy_sim_ns", "sim_ns"),
    ("shuffle.backpressure_blocks", "count"),
    ("shuffle.backpressure_wait_sim_ns", "sim_ns"),
    ("shuffle.spill_bytes", "B"),
    ("store.hit_rate", "ratio"),
    ("store.evictions", "count"),
    ("store.disk_fetches", "count"),
    ("store.recomputes", "count"),
    ("sim.disk.read_bytes", "B"),
    ("sim.disk.seeks", "count"),
    ("cluster.profile_s", "s"),
    ("cluster.loop_s", "s"),
    ("cluster.tasks_launched", "count"),
    ("cluster.spec_win_ratio", "ratio"),
    ("cluster.du_waits", "count"),
    ("cluster.du_wait_sim_ns", "sim_ns"),
    ("cluster.goodput", "ratio"),
    ("cluster.utilization", "ratio"),
    ("cluster.max_queue_depth", "count"),
    ("sim.net.fabric_bytes", "B"),
    ("critpath.queue_share", "ratio"),
    ("critpath.compute_share", "ratio"),
    ("critpath.serde_share", "ratio"),
    ("critpath.fetch_share", "ratio"),
    ("critpath.du_wait_share", "ratio"),
    ("critpath.gc_share", "ratio"),
    ("critpath.recovery_share", "ratio"),
    ("critpath.speculation_share", "ratio"),
    ("critpath.blacklist_share", "ratio"),
    ("telemetry.record_s", "s"),
    ("telemetry.critpath_s", "s"),
    ("telemetry.chrome_s", "s"),
    ("bench.stand_in_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.error_rate", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly these metrics with these units.
    #[test]
    fn lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in E2E.iter().chain(LAYERS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        assert_eq!(json.matches("\"unit\"").count(), E2E.len() + LAYERS.len());
    }
}
