//! Rendering one sweep cell of the cluster experiment.

use crate::sched::ClusterOutcome;
use crate::ClusterConfig;
use telemetry::{ratio, JsonWriter};

/// One sweep cell: the configuration axes that vary plus the outcome.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell's full configuration.
    pub cfg: ClusterConfig,
    /// What the run produced.
    pub outcome: ClusterOutcome,
}

/// Writes a float with `Display` precision (1.1, not 1.100000).
fn disp_field(w: &mut JsonWriter, k: &str, v: f64) {
    w.key(k);
    w.raw_val(&format!("{v}"));
}

impl CellResult {
    /// Renders the cell as one JSON object.
    pub fn render(&self, w: &mut JsonWriter) {
        let o = &self.outcome;
        w.begin_obj();
        w.field_u64("executors", self.cfg.executors as u64);
        w.field_u64("tenants", self.cfg.tenants as u64);
        disp_field(w, "tenant_theta", self.cfg.tenant_theta);
        w.field_u64("du_contexts_per_node", self.cfg.du_contexts_per_node as u64);
        disp_field(w, "straggler_rate", self.cfg.straggler_rate);
        w.field_bool("speculation", self.cfg.speculation);
        disp_field(w, "exec_crash_rate", self.cfg.fault.exec_crash_rate);
        disp_field(w, "node_fail_rate", self.cfg.fault.node_fail_rate);
        disp_field(w, "task_fail_rate", self.cfg.fault.task_fail_rate);
        disp_field(w, "du_fail_rate", self.cfg.fault.du_fail_rate);
        disp_field(w, "heartbeat_period_ns", self.cfg.fault.heartbeat_period_ns);
        w.field_u64(
            "blacklist_threshold",
            u64::from(self.cfg.fault.blacklist_threshold),
        );
        w.field_u64("shed_queue_depth", self.cfg.fault.shed_queue_depth as u64);
        w.field_u64("arrivals", o.arrivals);
        w.field_u64("jobs_completed", o.jobs_completed);
        w.field_u64("jobs_shed", o.jobs_shed);
        w.field_u64("jobs_failed", o.jobs_failed);
        w.field_u64("tasks_launched", o.tasks_launched);
        w.field_u64("tasks_completed", o.tasks_completed);
        w.field_u64("stragglers", o.stragglers);
        w.field_u64("spec_launches", o.spec_launches);
        w.field_u64("spec_wins", o.spec_wins);
        w.field_u64("du_waits", o.du_waits);
        w.field_f64("du_wait_ns", o.du_wait_ns, 3);
        w.field_u64("fabric_messages", o.fabric_messages);
        w.field_u64("fabric_bytes", o.fabric_bytes);
        w.field_f64("makespan_ns", o.makespan_ns, 3);
        w.field_f64("mean_latency_ns", o.mean_latency_ns(), 3);
        w.field_f64("max_latency_ns", o.job_latency_max_ns, 3);
        w.field_u64("max_queue_depth", o.max_queue_depth);
        w.field_u64("max_running", o.max_running);
        w.field_u64("executors_used", o.executors_used);
        w.field_f64("utilization", o.utilization(self.cfg.executors), 6);
        w.field_u64("exec_crashes", o.exec_crashes);
        w.field_u64("node_crashes", o.node_crashes);
        w.field_u64("heartbeat_deaths", o.heartbeat_deaths);
        w.field_u64("fetch_fail_deaths", o.fetch_fail_deaths);
        w.field_u64("crash_task_kills", o.crash_task_kills);
        w.field_u64("task_failures", o.task_failures);
        w.field_u64("task_retries", o.task_retries);
        w.field_u64("crash_requeues", o.crash_requeues);
        w.field_u64("recomputes", o.recomputes);
        w.field_u64("blacklists", o.blacklists);
        w.field_u64("blacklist_rejoins", o.blacklist_rejoins);
        w.field_u64("restarts", o.restarts);
        w.field_u64("du_device_failures", o.du_device_failures);
        w.field_u64("degraded_tasks", o.degraded_tasks);
        w.field_f64("wasted_ns", o.wasted_ns, 3);
        w.field_f64("goodput", o.goodput(), 6);
        w.field_f64("recompute_share", o.recompute_share(), 6);
        w.field_f64("shed_rate", o.shed_rate(), 6);
        w.key("tenant_jobs");
        w.begin_arr();
        for t in &o.per_tenant {
            w.u64_val(t.jobs);
        }
        w.end_arr();
        w.key("tenant_mean_latency_ns");
        w.begin_arr();
        for t in &o.per_tenant {
            w.raw_val(&format!("{:.3}", ratio(t.latency_sum_ns, t.jobs as f64)));
        }
        w.end_arr();
        w.field_str("fold_checksum", &format!("{:016x}", o.fold_checksum));
        w.end_obj();
    }
}
