//! Tenant job templates and the open-arrival generator.
//!
//! Each tenant owns one job *template* — a dataset seed, a
//! serialization backend, and a job shape (shuffle or cached-RDD scan).
//! The arrival process is open: inter-arrival gaps are exponential
//! draws on the simulated clock (a Poisson process), and each arrival's
//! tenant comes from a Zipf-skewed [`SkewSampler`], so a hot tenant's
//! jobs pile onto the cluster the way hot keys pile onto a reducer.

use crate::ClusterConfig;
use sdheap::rng::Rng;
use store::Backend;
use workloads::{AggConfig, KeySkew, SkewSampler};

/// PRNG scope of the tenant-pick stream.
const TENANT_SCOPE: u64 = 0x7E4A_4700_0000;
/// PRNG scope of the inter-arrival stream.
const ARRIVAL_SCOPE: u64 = 0xA221_4A11_0000;

/// What a tenant's jobs do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    /// A two-stage shuffle: map wave, then reduce wave.
    Shuffle,
    /// A cached-RDD job: materialize the partitions, then re-read them
    /// for `passes` scan stages.
    Scan {
        /// Re-read passes after materialization.
        passes: usize,
    },
}

/// One tenant's job template.
#[derive(Clone, Copy, Debug)]
pub struct TenantTemplate {
    /// The tenant index.
    pub tenant: usize,
    /// Job shape.
    pub kind: JobKind,
    /// Serialization backend of every task (Cereal-backend deserialize
    /// tasks contend for the shared DU contexts).
    pub backend: Backend,
    /// The tenant's dataset.
    pub agg: AggConfig,
}

/// Backends cycled across tenants: Cereal appears often enough that DU
/// contexts stay contended, with software and zero-copy backends mixed
/// in so the cluster exercises every decode path.
const TENANT_BACKENDS: [Backend; 8] = [
    Backend::Cereal,
    Backend::Kryo,
    Backend::Archive,
    Backend::Cereal,
    Backend::ProtoLike,
    Backend::Cereal,
    Backend::Kryo,
    Backend::Archive,
];

/// The template of tenant `t` under `cfg`: even tenants shuffle, odd
/// tenants run cached scans; backends cycle through
/// `TENANT_BACKENDS`; every other tenant's keys are Zipf-skewed.
pub fn template(cfg: &ClusterConfig, t: usize) -> TenantTemplate {
    let kind = if t.is_multiple_of(2) {
        JobKind::Shuffle
    } else {
        JobKind::Scan { passes: 2 }
    };
    let skew = if t.is_multiple_of(2) {
        KeySkew::Zipf(0.9)
    } else {
        KeySkew::Uniform
    };
    TenantTemplate {
        tenant: t,
        kind,
        backend: TENANT_BACKENDS[t % TENANT_BACKENDS.len()],
        agg: AggConfig {
            mappers: cfg.template_mappers,
            records_per_mapper: cfg.template_records,
            distinct_keys: cfg.template_keys,
            seed: cfg.seed ^ (0x7E4A_0000 + t as u64),
            skew,
        },
    }
}

/// One job arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Arrival time on the simulated clock.
    pub t_ns: f64,
    /// The arriving job's tenant.
    pub tenant: usize,
}

/// The seeded open-arrival sequence: `cfg.job_arrivals` jobs with
/// exponential inter-arrival gaps of the given mean, tenants drawn from
/// a Zipf([`ClusterConfig::tenant_theta`]) sampler. Both streams are
/// scoped off the master seed, so the sequence is a pure function of
/// `(cfg, mean_interarrival_ns)`.
pub fn arrivals(cfg: &ClusterConfig, mean_interarrival_ns: f64) -> Vec<Arrival> {
    assert!(
        mean_interarrival_ns.is_finite() && mean_interarrival_ns >= 0.0,
        "mean inter-arrival must be finite and non-negative"
    );
    let mut skew = SkewSampler::new(
        cfg.tenants.max(1) as u64,
        cfg.tenant_theta,
        cfg.seed ^ TENANT_SCOPE,
    );
    let mut rng = Rng::new(cfg.seed ^ ARRIVAL_SCOPE);
    let mut t = 0.0f64;
    (0..cfg.job_arrivals)
        .map(|_| {
            // Inverse-CDF exponential: u ∈ [0,1) ⇒ -ln(1-u) ∈ [0,∞).
            let u = rng.gen_f64();
            t += -(1.0 - u).ln() * mean_interarrival_ns;
            Arrival {
                t_ns: t,
                tenant: skew.draw() as usize,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_and_monotonic() {
        let cfg = ClusterConfig::smoke();
        let a = arrivals(&cfg, 50_000.0);
        let b = arrivals(&cfg, 50_000.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.job_arrivals);
        for w in a.windows(2) {
            assert!(
                w[0].t_ns <= w[1].t_ns,
                "arrival times must be non-decreasing"
            );
        }
        for arr in &a {
            assert!(arr.tenant < cfg.tenants);
        }
    }

    #[test]
    fn tenant_skew_concentrates_arrivals() {
        let mut cfg = ClusterConfig::smoke();
        cfg.job_arrivals = 2000;
        cfg.tenant_theta = 1.4;
        let hot = arrivals(&cfg, 1000.0)
            .iter()
            .filter(|a| a.tenant == 0)
            .count();
        cfg.tenant_theta = 0.0;
        let flat = arrivals(&cfg, 1000.0)
            .iter()
            .filter(|a| a.tenant == 0)
            .count();
        assert!(
            hot > flat * 2,
            "theta 1.4 should concentrate on tenant 0: hot {hot} vs flat {flat}"
        );
    }

    #[test]
    fn templates_cover_both_kinds_and_the_accelerator() {
        let cfg = ClusterConfig::smoke();
        let ts: Vec<TenantTemplate> = (0..cfg.tenants).map(|t| template(&cfg, t)).collect();
        assert!(ts.iter().any(|t| t.kind == JobKind::Shuffle));
        assert!(ts.iter().any(|t| matches!(t.kind, JobKind::Scan { .. })));
        assert!(ts.iter().any(|t| t.backend == Backend::Cereal));
        // Distinct dataset seeds per tenant.
        let mut seeds: Vec<u64> = ts.iter().map(|t| t.agg.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), cfg.tenants);
    }
}
