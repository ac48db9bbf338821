//! End-to-end shuffle service tests: thread-count determinism,
//! backpressure, coalescing, GC pressure, spilling, key skew,
//! cross-backend agreement, and the reducer's batch checks.

use sdheap::Addr;
use shuffle::{
    run_backend_sunk, run_mapper, run_reducer_sunk, run_suite, Backend, Message, ShuffleConfig,
    ShuffleError, GC_WAVES,
};
use store::Engine;
use telemetry::NoopSink;
use workloads::spark::agg::coalesce;
use workloads::KeySkew;

fn tiny() -> ShuffleConfig {
    ShuffleConfig {
        mappers: 3,
        reducers: 3,
        records_per_mapper: 96,
        distinct_keys: 16,
        ..ShuffleConfig::smoke()
    }
}

#[test]
fn report_is_byte_identical_for_any_job_count() {
    let backends = [Backend::Kryo, Backend::Cereal];
    let mut cfg = tiny();
    cfg.jobs = 1;
    let one = run_suite(&cfg, &backends).unwrap().to_json();
    cfg.jobs = 4;
    let four = run_suite(&cfg, &backends).unwrap().to_json();
    assert_eq!(one, four, "jobs=1 and jobs=4 must render identical reports");
    cfg.jobs = 13;
    let thirteen = run_suite(&cfg, &backends).unwrap().to_json();
    assert_eq!(one, thirteen);
}

#[test]
fn fold_matches_the_datasets_expected_aggregate() {
    let cfg = tiny();
    let run = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap();
    let expected = cfg.agg().expected_fold();
    assert_eq!(run.fold.len(), expected.len());
    for (k, &(count, sum)) in &expected {
        let &(c, s) = run.fold.get(k).expect("key present");
        assert_eq!(c, count, "count for key {k}");
        assert_eq!(s.to_bits(), sum.to_bits(), "sum for key {k} is bit-exact");
    }
}

#[test]
fn all_backends_agree_on_the_aggregate() {
    // run_suite errors on disagreement; also check the checksums match.
    let report = run_suite(&tiny(), Backend::ALL).unwrap();
    let first = report.backends[0].fold_checksum;
    for b in &report.backends {
        assert_eq!(b.fold_checksum, first, "{} diverged", b.name);
        assert_eq!(b.records, (3 * 96) as u64, "{} lost records", b.name);
    }
}

#[test]
fn backpressure_blocks_at_the_watermark() {
    // A watermark of 1 byte forces every send to wait for the previous
    // batch to clear the reducer.
    let mut tight = tiny();
    tight.watermark_bytes = 1;
    let blocked = run_backend_sunk(&tight, Backend::Kryo, &mut NoopSink).unwrap();
    assert!(
        blocked.report.net.backpressure_blocks > 0,
        "tight watermark must block senders"
    );
    assert!(blocked.report.net.backpressure_wait_ns > 0.0);

    // An effectively unbounded window never blocks, and the shuffle
    // finishes no later.
    let mut open = tiny();
    open.watermark_bytes = u64::MAX;
    let free = run_backend_sunk(&open, Backend::Kryo, &mut NoopSink).unwrap();
    assert_eq!(free.report.net.backpressure_blocks, 0);
    assert_eq!(free.report.net.backpressure_wait_ns, 0.0);
    assert!(
        blocked.report.net.makespan_ns >= free.report.net.makespan_ns,
        "blocking cannot finish earlier: {} vs {}",
        blocked.report.net.makespan_ns,
        free.report.net.makespan_ns
    );
    // The stream contents are unaffected by flow control.
    assert_eq!(blocked.report.fold_checksum, free.report.fold_checksum);
    assert_eq!(blocked.report.wire_bytes, free.report.wire_bytes);
}

#[test]
fn coalescing_ships_fewer_larger_messages_with_identical_records() {
    let mut fine = tiny();
    fine.flush_bytes = 1; // flush every record: no coalescing
    let mut coarse = tiny();
    coarse.flush_bytes = 64 << 10; // everything coalesces per reducer

    let fine_run = run_backend_sunk(&fine, Backend::Kryo, &mut NoopSink).unwrap();
    let coarse_run = run_backend_sunk(&coarse, Backend::Kryo, &mut NoopSink).unwrap();
    assert!(
        coarse_run.report.messages < fine_run.report.messages,
        "coalescing must reduce message count: {} vs {}",
        coarse_run.report.messages,
        fine_run.report.messages
    );
    let fine_avg = fine_run.report.wire_bytes as f64 / fine_run.report.messages as f64;
    let coarse_avg = coarse_run.report.wire_bytes as f64 / coarse_run.report.messages as f64;
    assert!(
        coarse_avg > fine_avg * 4.0,
        "coalesced batches must be much larger: {coarse_avg:.0} vs {fine_avg:.0} B"
    );
    // Identical decoded records either way.
    assert_eq!(fine_run.fold, coarse_run.fold);
    assert_eq!(
        fine_run.report.records, coarse_run.report.records,
        "every record arrives exactly once"
    );
    // Fewer messages means less per-message framing on the wire.
    assert!(coarse_run.report.wire_bytes < fine_run.report.wire_bytes);
}

#[test]
fn gc_pressure_reports_collections_and_charges_pauses() {
    let mut cfg = tiny();
    cfg.gc_pressure = true;
    let run = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap();
    let gc = run
        .report
        .gc
        .expect("gc totals present in gc-pressure mode");
    assert_eq!(gc.collections, (GC_WAVES as u64 - 1) * cfg.mappers as u64);
    assert!(gc.pause_ns > 0.0);
    assert!(
        gc.reclaimed_bytes > 0,
        "shipped batches must be reclaimed as garbage"
    );
    // The aggregate survives relocation.
    let expected = cfg.agg().expected_fold();
    assert_eq!(run.fold.len(), expected.len());
    for (k, &(count, _)) in &expected {
        assert_eq!(run.fold[k].0, count);
    }
    // Pauses push the map stage (and the whole shuffle) later.
    let mut no_gc = cfg;
    no_gc.gc_pressure = false;
    let baseline = run_backend_sunk(&no_gc, Backend::Kryo, &mut NoopSink).unwrap();
    assert!(run.report.map_makespan_ns > baseline.report.map_makespan_ns);
    assert_eq!(run.report.fold_checksum, baseline.report.fold_checksum);
}

#[test]
fn spill_threshold_routes_batches_through_the_store() {
    // A one-byte budget forces every flushed batch out to the simulated
    // SSD and back in at serve time.
    let mut spilling = tiny();
    spilling.spill_bytes = 1;
    let spilled = run_backend_sunk(&spilling, Backend::Kryo, &mut NoopSink).unwrap();
    let totals = spilled
        .report
        .spill
        .expect("spill totals present when spilling is on");
    assert_eq!(
        totals.spills, spilled.report.messages,
        "every batch spilled"
    );
    assert_eq!(
        totals.fetches, spilled.report.messages,
        "every batch read back"
    );
    assert!(totals.spilled_bytes >= spilled.report.wire_bytes);
    assert!(totals.spill_ns > 0.0 && totals.fetch_ns > 0.0);

    // The store is a detour, not a transformation: identical bytes on
    // the wire, identical aggregate, and a later map stage.
    let baseline = run_backend_sunk(&tiny(), Backend::Kryo, &mut NoopSink).unwrap();
    assert!(baseline.report.spill.is_none());
    assert_eq!(spilled.report.wire_bytes, baseline.report.wire_bytes);
    assert_eq!(spilled.report.fold_checksum, baseline.report.fold_checksum);
    assert!(spilled.report.map_makespan_ns > baseline.report.map_makespan_ns);

    // A budget above the mapper's whole output never touches the disk.
    let mut roomy = tiny();
    roomy.spill_bytes = u64::MAX;
    let held = run_backend_sunk(&roomy, Backend::Kryo, &mut NoopSink).unwrap();
    let totals = held.report.spill.expect("store engaged");
    assert_eq!(totals.spills, 0);
    assert_eq!(totals.spill_ns, 0.0);
    assert_eq!(held.report.fold_checksum, baseline.report.fold_checksum);

    // Spilling composes with thread fan-out deterministically.
    let mut jobs4 = spilling;
    jobs4.jobs = 4;
    let report_one = run_suite(&spilling, &[Backend::Kryo]).unwrap().to_json();
    let report_four = run_suite(&jobs4, &[Backend::Kryo]).unwrap().to_json();
    assert_eq!(report_one, report_four);
}

#[test]
fn zipf_skew_engages_backpressure_on_the_hot_reducer() {
    // Skewed keys concentrate traffic on few reducers; with a watermark
    // sized so uniform traffic just clears, the hot reducer's queue
    // must block its senders.
    let mut uniform = tiny();
    uniform.records_per_mapper = 256;
    uniform.watermark_bytes = 6 << 10;
    let mut skewed = uniform;
    skewed.skew = KeySkew::Zipf(1.4);

    let u = run_backend_sunk(&uniform, Backend::Kryo, &mut NoopSink).unwrap();
    let z = run_backend_sunk(&skewed, Backend::Kryo, &mut NoopSink).unwrap();
    assert!(
        z.report.net.backpressure_blocks > u.report.net.backpressure_blocks,
        "skew must increase watermark blocking: {} vs {}",
        z.report.net.backpressure_blocks,
        u.report.net.backpressure_blocks
    );
    assert!(z.report.net.backpressure_blocks > 0);
    assert!(z.report.net.backpressure_wait_ns > 0.0);
    // Skew shifts traffic, not records: all arrive, on fewer keys.
    assert_eq!(z.report.records, u.report.records);
    assert!(z.fold.len() <= u.fold.len());
    // And the skewed dataset still folds to its own expected aggregate.
    let expected = skewed.agg().expected_fold();
    assert_eq!(z.fold.len(), expected.len());
    for (k, &(count, _)) in &expected {
        assert_eq!(z.fold[k].0, count, "count for key {k}");
    }
}

#[test]
fn cereal_backend_outruns_software() {
    // Large coalesced batches: the regime the accelerator is built for
    // (its units are bandwidth-bound; tiny requests pay fixed latency).
    let mut cfg = tiny();
    cfg.flush_bytes = 64 << 10;
    let kryo = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap();
    let cereal = run_backend_sunk(&cfg, Backend::Cereal, &mut NoopSink).unwrap();
    assert!(
        cereal.report.ser_busy_ns < kryo.report.ser_busy_ns,
        "the accelerator must serialize faster than Kryo: {} vs {}",
        cereal.report.ser_busy_ns,
        kryo.report.ser_busy_ns
    );
    assert!(
        cereal.report.de_busy_ns < kryo.report.de_busy_ns,
        "the accelerator must deserialize faster than Kryo: {} vs {}",
        cereal.report.de_busy_ns,
        kryo.report.de_busy_ns
    );
    assert!(cereal.report.net.makespan_ns < kryo.report.net.makespan_ns);
}

/// Reduces one message on its own with the run's settings.
fn reduce_one(cfg: &ShuffleConfig, msg: &Message) -> Result<u64, ShuffleError> {
    let reg = cfg.agg().registry();
    let cap = cfg.agg().heap_capacity();
    run_reducer_sunk(
        msg.backend,
        &reg,
        cap,
        &[msg],
        &[],
        cfg.checksum,
        msg.dst,
        &mut NoopSink,
    )
    .map(|out| out.records)
}

/// A batch whose `records` field disagrees with what it decodes to is a
/// `BadBatch`, on a reconstructing backend and on the in-place Archive
/// read alike.
#[test]
fn a_record_count_mismatch_is_a_bad_batch() {
    let cfg = tiny();
    for backend in [Backend::Kryo, Backend::Archive] {
        let mut msg = run_mapper(&cfg, backend, 1)
            .unwrap()
            .messages
            .swap_remove(0);
        assert_eq!(
            reduce_one(&cfg, &msg),
            Ok(msg.records),
            "{backend:?}: the intact batch reads"
        );
        msg.records += 1;
        let err = reduce_one(&cfg, &msg).unwrap_err();
        assert!(
            matches!(err, ShuffleError::BadBatch { src: 1, seq: 0, .. }),
            "{backend:?}: {err:?}"
        );
    }
}

/// A batch holding a null element is a typed `BadBatch`, never a read of
/// address 0.
#[test]
fn a_batch_with_a_null_element_is_a_bad_batch() {
    let cfg = tiny();
    let mut part = cfg.agg().build_partition(0);
    let records = [part.records[0], Addr::NULL, part.records[1]];
    let batch = coalesce(&mut part.heap, &part.reg, part.batch_klass, &records);
    for backend in [Backend::Kryo, Backend::Archive] {
        let (bytes, t) = Engine::new(backend, &part.reg).serialize(
            &mut part.heap,
            &part.reg,
            batch,
            cfg.checksum,
            &mut NoopSink,
        );
        let msg = Message {
            src: 0,
            dst: 0,
            seq: 0,
            bytes,
            records: records.len() as u64,
            backend,
            ser_ns: t.busy_ns,
            ser_done_ns: t.busy_ns,
        };
        let err = reduce_one(&cfg, &msg).unwrap_err();
        let bad = matches!(
            err,
            ShuffleError::BadBatch {
                src: 0,
                dst: 0,
                seq: 0
            }
        );
        assert!(bad, "{backend:?}: {err:?}");
    }
}

#[test]
fn invalid_configs_are_typed_errors_not_panics() {
    let invalid = |cfg: ShuffleConfig, why: &'static str| {
        let want = Err(ShuffleError::InvalidConfig(why));
        assert_eq!(cfg.validate(), want);
        let backend = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).map(|_| ());
        assert_eq!(backend, want, "run_backend_sunk");
        let mapper = shuffle::run_mapper_sunk(&cfg, Backend::Kryo, 0, &mut NoopSink).map(|_| ());
        assert_eq!(mapper, want, "run_mapper_sunk");
    };
    // A remainder by zero in the mapper's partitioning before validation.
    invalid(
        ShuffleConfig {
            reducers: 0,
            ..ShuffleConfig::smoke()
        },
        "reducers must be > 0",
    );
    invalid(
        ShuffleConfig {
            mappers: 0,
            ..ShuffleConfig::smoke()
        },
        "mappers must be > 0",
    );
    // An empty key range or a bad Zipf exponent in partition generation.
    invalid(
        ShuffleConfig {
            distinct_keys: 0,
            ..ShuffleConfig::smoke()
        },
        "distinct_keys must be > 0",
    );
    for theta in [f64::NAN, f64::INFINITY, -1.0] {
        invalid(
            ShuffleConfig {
                skew: KeySkew::Zipf(theta),
                ..ShuffleConfig::smoke()
            },
            "zipf theta must be finite and >= 0",
        );
    }
    let faulty = |f: sim::FaultConfig| ShuffleConfig {
        faults: Some(f),
        ..ShuffleConfig::smoke()
    };
    let none = sim::FaultConfig::none();
    invalid(
        faulty(sim::FaultConfig {
            link_loss: f64::NAN,
            ..none
        }),
        "faults.link_loss must be in [0, 1]",
    );
    invalid(
        faulty(sim::FaultConfig {
            mapper_death: 1.5,
            ..none
        }),
        "faults.mapper_death must be in [0, 1]",
    );
    invalid(
        faulty(sim::FaultConfig {
            backoff_ns: -1.0,
            ..none
        }),
        "faults.backoff_ns must be finite and >= 0",
    );
    let mut link = ShuffleConfig::smoke();
    link.link.bytes_per_ns = 0.0;
    invalid(link, "link.bytes_per_ns must be finite and > 0");

    // Every preset, and the fault sweep's configs, stay valid.
    for base in [ShuffleConfig::smoke(), ShuffleConfig::full()] {
        assert_eq!(base.validate(), Ok(()));
        for rate in [0.0, 0.01, 0.05, 0.15, 1.0] {
            let cfg = ShuffleConfig {
                checksum: true,
                spill_bytes: base.flush_bytes,
                faults: Some(sim::FaultConfig::uniform(rate, 0xFA17)),
                ..base
            };
            assert_eq!(cfg.validate(), Ok(()), "rate {rate}");
        }
    }
}
