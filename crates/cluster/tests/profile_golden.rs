//! Frozen job profiles.
//!
//! [`build_profiles`] runs every tenant's template through the real
//! executors once; the scheduler replays those numbers for every job
//! instance. [`ROWS`] pins, per tenant, an FNV-1a-64 over every
//! [`TaskProfile`] field of every stage (service and fallback times and
//! the three component fractions as f64 bits, and every `(task, bytes)`
//! input pair, in order), the fold checksum, the task count and the bits
//! of the summed service. Two configs: the smoke cluster, and the same
//! cluster with DU device failures enabled, which also profiles the
//! software fallback of the Cereal tenants. Each builds at 1 and 4
//! worker threads and must match the same rows. On a mismatch the test
//! prints the actual rows.

use cluster::{build_profiles, ClusterConfig, JobProfile, StageKind};

fn du_failures() -> ClusterConfig {
    let mut cfg = ClusterConfig::smoke();
    cfg.fault.du_fail_rate = 0.1;
    cfg
}

#[derive(Debug, PartialEq)]
struct Row {
    config: &'static str,
    tenant: usize,
    tasks_fnv: u64,
    fold_checksum: u64,
    tasks: u64,
    total_service_bits: u64,
}

const ROWS: [Row; 8] = [
    Row {
        config: "smoke",
        tenant: 0,
        tasks_fnv: 0x6c42fc105f321c8b,
        fold_checksum: 0xb8491ab4e3409f37,
        tasks: 8,
        total_service_bits: 0x40e115d955555556,
    },
    Row {
        config: "smoke",
        tenant: 1,
        tasks_fnv: 0x8f3d0d9f4aa5dea3,
        fold_checksum: 0x128572bdb81a0ff6,
        tasks: 12,
        total_service_bits: 0x41100b0071c71c9b,
    },
    Row {
        config: "smoke",
        tenant: 2,
        tasks_fnv: 0x2745666272906f46,
        fold_checksum: 0x203bb18d71b9bcdc,
        tasks: 8,
        total_service_bits: 0x4112126db05b05b5,
    },
    Row {
        config: "smoke",
        tenant: 3,
        tasks_fnv: 0x1705994ef71ff3c3,
        fold_checksum: 0x85984d056dfa707e,
        tasks: 12,
        total_service_bits: 0x40fc760b55555562,
    },
    Row {
        config: "du_failures",
        tenant: 0,
        tasks_fnv: 0x82379d2797ee0cc7,
        fold_checksum: 0xb8491ab4e3409f37,
        tasks: 8,
        total_service_bits: 0x40e115d955555556,
    },
    Row {
        config: "du_failures",
        tenant: 1,
        tasks_fnv: 0x8f3d0d9f4aa5dea3,
        fold_checksum: 0x128572bdb81a0ff6,
        tasks: 12,
        total_service_bits: 0x41100b0071c71c9b,
    },
    Row {
        config: "du_failures",
        tenant: 2,
        tasks_fnv: 0x2745666272906f46,
        fold_checksum: 0x203bb18d71b9bcdc,
        tasks: 8,
        total_service_bits: 0x4112126db05b05b5,
    },
    Row {
        config: "du_failures",
        tenant: 3,
        tasks_fnv: 0x3e20eaac06fca3fb,
        fold_checksum: 0x85984d056dfa707e,
        tasks: 12,
        total_service_bits: 0x40fc760b55555562,
    },
];

/// FNV-1a-64, fed one `u64` at a time (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn tasks_fnv(p: &JobProfile) -> u64 {
    let mut h = Fnv::new();
    for st in &p.stages {
        h.u64(match st.kind {
            StageKind::Map => 0,
            StageKind::Reduce => 1,
            StageKind::Materialize => 2,
            StageKind::Scan => 3,
        });
        h.u64(st.tasks.len() as u64);
        for t in &st.tasks {
            h.f64(t.service_ns);
            h.f64(t.fallback_ns);
            h.f64(t.components.0);
            h.f64(t.components.1);
            h.f64(t.components.2);
            h.u64(t.inputs.len() as u64);
            for &(src, bytes) in &t.inputs {
                h.u64(src as u64);
                h.u64(bytes);
            }
        }
    }
    h.0
}

fn rows(config: &'static str, cfg: &ClusterConfig) -> Vec<Row> {
    build_profiles(cfg)
        .unwrap_or_else(|e| panic!("{config}: {e}"))
        .iter()
        .enumerate()
        .map(|(tenant, p)| Row {
            config,
            tenant,
            tasks_fnv: tasks_fnv(p),
            fold_checksum: p.fold_checksum,
            tasks: p.tasks,
            total_service_bits: p.total_service_ns.to_bits(),
        })
        .collect()
}

#[test]
fn profiles_match_frozen_rows_at_every_thread_count() {
    let configs: [(&'static str, ClusterConfig); 2] = [
        ("smoke", ClusterConfig::smoke()),
        ("du_failures", du_failures()),
    ];
    for jobs in [1, 4] {
        let actual: Vec<Row> = configs
            .iter()
            .flat_map(|(name, cfg)| rows(name, &ClusterConfig { jobs, ..*cfg }))
            .collect();
        if actual.as_slice() != ROWS.as_slice() {
            let mut text = String::new();
            for r in &actual {
                text.push_str(&format!(
                    "    Row {{\n        config: {:?},\n        tenant: {},\n        \
                     tasks_fnv: {:#018x},\n        fold_checksum: {:#018x},\n        \
                     tasks: {},\n        total_service_bits: {:#018x},\n    }},\n",
                    r.config, r.tenant, r.tasks_fnv, r.fold_checksum, r.tasks, r.total_service_bits
                ));
            }
            panic!("profiles drifted at jobs = {jobs}; actual rows:\n{text}");
        }
    }
}
