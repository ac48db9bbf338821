//! End-to-end block-store tests: eviction determinism, spill/reload
//! byte-identity per backend, the recompute-vs-fetch policy crossover,
//! job-count invariance of the suite report, and the agreement of the
//! in-place and reconstructing batch reads, and config validation.

use sim::DiskConfig;
use store::{
    build_part, run_rdd_sunk, run_suite, AccessPattern, Backend, BlockStore, Engine, MissPolicy,
    NoLineage, RddConfig, StoreConfig, StoreError,
};
use telemetry::NoopSink;
use workloads::spark::agg::{coalesce, fold_heap_batch};
use workloads::{AggConfig, Fold, KeySkew};

fn tiny_agg() -> AggConfig {
    AggConfig {
        mappers: 6,
        records_per_mapper: 64,
        distinct_keys: 16,
        seed: 0x5EED_B10C,
        skew: KeySkew::Uniform,
    }
}

fn tiny(backend: Backend) -> RddConfig {
    RddConfig {
        agg: tiny_agg(),
        backend,
        memory_fraction: 0.5,
        passes: 3,
        policy: MissPolicy::Fetch,
        disk: DiskConfig::ssd(),
        access: AccessPattern::Scan,
        jobs: 1,
        checksum: false,
        fault: None,
    }
}

/// Scanning a half-sized cache evicts deterministically: two identical
/// runs agree on every counter and every simulated nanosecond, and the
/// scan pattern under LRU misses every block (sequential flooding).
#[test]
fn eviction_order_is_deterministic() {
    let cfg = tiny(Backend::Kryo);
    let a = run_rdd_sunk(&cfg, &mut NoopSink).unwrap();
    let b = run_rdd_sunk(&cfg, &mut NoopSink).unwrap();
    assert_eq!(a.store, b.store);
    assert_eq!(a.total_ns.to_bits(), b.total_ns.to_bits());
    assert_eq!(a.materialize_ns.to_bits(), b.materialize_ns.to_bits());
    assert!(a.fold_ok);
    // A scan over a cache at half the dataset size is LRU's worst case:
    // each block is evicted before its next use, so passes never hit.
    for p in &a.passes {
        assert_eq!(p.hits, 0, "sequential flooding cannot hit under LRU");
        assert_eq!(p.disk_fetches, cfg.agg.mappers as u64);
    }
    assert!(a.store.evictions > 0);
    assert!(a.disk_write_bytes > 0, "fetch policy spills evictions");
}

/// For every backend, a block that round-trips through the spill file
/// comes back byte-identical, and its re-read deserializes to the same
/// fold.
#[test]
fn spill_and_reload_is_byte_identical_per_backend() {
    for &backend in Backend::ALL {
        let cfg = tiny(backend);
        let parts: Vec<_> = (0..cfg.agg.mappers).map(|m| build_part(&cfg, m)).collect();
        // Room for one block at a time: every put evicts the previous
        // block to disk.
        let budget = parts.iter().map(|p| p.bytes.len() as u64).max().unwrap();
        let mut store = BlockStore::new(StoreConfig::plain(
            budget,
            DiskConfig::ssd(),
            MissPolicy::Fetch,
        ));
        let mut now = 0.0;
        for p in &parts {
            let (_, done) = store.put(p.bytes.clone(), p.recompute_ns, now);
            now = done;
        }
        for (m, p) in parts.iter().enumerate() {
            let access = store.get(m, now, &mut NoLineage).unwrap();
            now = access.done_ns;
            assert_eq!(
                store.bytes(m).unwrap(),
                &p.bytes[..],
                "{}: block {m} corrupted by spill/reload",
                backend.name()
            );
        }
        assert!(
            store.stats().disk_fetches > 0,
            "{}: the budget must force disk round trips",
            backend.name()
        );
    }
}

/// The auto policy lands on the cheaper side of the miss: against a
/// slow-seek HDD it recomputes from lineage, against NVMe it spills and
/// fetches — and it is never slower than both fixed policies.
#[test]
fn auto_policy_crosses_over_with_the_disk() {
    let base = tiny(Backend::Kryo);

    let hdd = run_rdd_sunk(
        &RddConfig {
            policy: MissPolicy::Auto,
            disk: DiskConfig::hdd(),
            ..base
        },
        &mut NoopSink,
    )
    .unwrap();
    assert!(hdd.store.recomputes > 0, "HDD seeks dwarf recomputation");
    assert_eq!(hdd.store.spills, 0);
    assert!(hdd.fold_ok);

    let nvme = run_rdd_sunk(
        &RddConfig {
            policy: MissPolicy::Auto,
            disk: DiskConfig::nvme(),
            ..base
        },
        &mut NoopSink,
    )
    .unwrap();
    assert!(
        nvme.store.disk_fetches > 0,
        "NVMe fetches beat recomputation"
    );
    assert_eq!(nvme.store.recomputes, 0);
    assert!(nvme.fold_ok);

    for (auto, disk) in [(&hdd, DiskConfig::hdd()), (&nvme, DiskConfig::nvme())] {
        let fetch = run_rdd_sunk(
            &RddConfig {
                policy: MissPolicy::Fetch,
                disk,
                ..base
            },
            &mut NoopSink,
        )
        .unwrap();
        let recompute = run_rdd_sunk(
            &RddConfig {
                policy: MissPolicy::Recompute,
                disk,
                ..base
            },
            &mut NoopSink,
        )
        .unwrap();
        let best = fetch.total_ns.min(recompute.total_ns);
        assert!(
            auto.total_ns <= best + 1e-6,
            "{}: auto ({:.0} ns) must not lose to the best fixed policy ({:.0} ns)",
            disk.name,
            auto.total_ns,
            best
        );
    }
}

/// Zipf-skewed re-reads keep the hot partitions resident: the hit rate
/// is strictly better than the scan's (which is zero under LRU at this
/// budget).
#[test]
fn skewed_access_hits_where_scans_thrash() {
    let base = tiny(Backend::Kryo);
    let scan = run_rdd_sunk(&base, &mut NoopSink).unwrap();
    let zipf = run_rdd_sunk(
        &RddConfig {
            access: AccessPattern::Zipf(1.2),
            ..base
        },
        &mut NoopSink,
    )
    .unwrap();
    let scan_hits: u64 = scan.passes.iter().map(|p| p.hits).sum();
    let zipf_hits: u64 = zipf.passes.iter().map(|p| p.hits).sum();
    assert_eq!(scan_hits, 0);
    assert!(zipf_hits > 0, "hot blocks must stay resident under skew");
}

/// The suite report is byte-identical for 1 and 4 worker threads.
#[test]
fn suite_report_is_job_count_invariant() {
    let backends = [Backend::Kryo, Backend::Cereal];
    let fractions = [0.4, 1.0];
    let report = |jobs| {
        let base = RddConfig {
            jobs,
            passes: 2,
            ..tiny(Backend::Kryo)
        };
        run_suite(&base, &backends, &fractions).unwrap().to_json()
    };
    let one = report(1);
    let four = report(4);
    assert_eq!(one, four, "report must not depend on the worker count");
    assert!(one.contains("\"fold_ok\": true"));
    assert!(!one.contains("\"fold_ok\": false"));
}

/// One partition read by the Archive engine (validated and folded in
/// place) and by the Kryo engine (reconstructed, then folded) folds to
/// the source heap's aggregate, sums bit for bit.
#[test]
fn archive_in_place_fold_equals_kryo_rebuilt_fold() {
    let agg = tiny_agg();
    let mut part = agg.build_partition(2);
    let batch = coalesce(&mut part.heap, &part.reg, part.batch_klass, &part.records);
    let mut src = Fold::new();
    fold_heap_batch(&part.heap, batch, &mut src).unwrap();
    let reg = agg.registry();
    let mut read = |backend| {
        let mut engine = Engine::new(backend, &part.reg);
        let (bytes, _) = engine.serialize(&mut part.heap, &part.reg, batch, true, &mut NoopSink);
        let mut fold = Fold::new();
        let (n, ns) = Engine::new(backend, &reg)
            .fold_batch(
                &bytes,
                &reg,
                agg.heap_capacity(),
                true,
                &mut fold,
                &mut NoopSink,
            )
            .unwrap();
        assert_eq!(n, part.records.len(), "{backend:?} reads every record");
        assert!(ns > 0.0, "{backend:?} charges its read");
        fold
    };
    let (archive, kryo) = (read(Backend::Archive), read(Backend::Kryo));
    assert_eq!(archive.len(), src.len());
    assert_eq!(kryo.len(), src.len());
    for (k, &(count, sum)) in &src {
        for (name, fold) in [("Archive", &archive), ("Kryo", &kryo)] {
            assert_eq!(fold[k].0, count, "{name} count for key {k}");
            assert_eq!(fold[k].1.to_bits(), sum.to_bits(), "{name} sum for key {k}");
        }
    }
}

/// A config `AggConfig::validate` rejects is a typed error before any
/// partition is built: zero keys used to panic a worker thread in
/// `Rng::gen_range_u64`.
#[test]
fn invalid_agg_configs_are_typed_errors_not_panics() {
    for (agg, why) in [
        (
            AggConfig {
                distinct_keys: 0,
                ..tiny_agg()
            },
            "distinct_keys must be > 0",
        ),
        (
            AggConfig {
                mappers: 0,
                ..tiny_agg()
            },
            "mappers must be > 0",
        ),
    ] {
        let cfg = RddConfig {
            agg,
            jobs: 2,
            ..tiny(Backend::Kryo)
        };
        match run_rdd_sunk(&cfg, &mut NoopSink) {
            Err(StoreError::InvalidConfig(got)) => assert_eq!(got, why),
            Err(e) => panic!("{why}: expected InvalidConfig, got {e:?}"),
            Ok(_) => panic!("{why}: expected InvalidConfig, got a run"),
        }
    }
}
