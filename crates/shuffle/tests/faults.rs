//! Fault-injection tests: every fault class is detected, recovered on
//! the simulated clock, and leaves the aggregate exactly equal to the
//! fault-free fold. Also pins the invariants the CI relies on: faulted
//! reports are byte-identical across job counts, and zero-rate
//! injection reproduces the fault-free numbers.

use shuffle::{run_backend_sunk, run_suite, Backend, ShuffleConfig, ShuffleError};
use sim::FaultConfig;
use std::collections::BTreeMap;
use telemetry::NoopSink;

fn tiny() -> ShuffleConfig {
    ShuffleConfig {
        mappers: 3,
        reducers: 3,
        records_per_mapper: 96,
        distinct_keys: 16,
        ..ShuffleConfig::smoke()
    }
}

/// A spec with every rate zeroed; tests switch on just the class under
/// test so recovery effects are attributable.
fn quiet_spec(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        ..FaultConfig::none()
    }
}

fn assert_fold_exact(fold: &BTreeMap<u64, (u64, f64)>, cfg: &ShuffleConfig) {
    let expected = cfg.agg().expected_fold();
    assert_eq!(fold.len(), expected.len(), "fold key count");
    for (k, &(count, sum)) in &expected {
        let &(c, s) = fold.get(k).expect("key present");
        assert_eq!(c, count, "count for key {k}");
        assert_eq!(s.to_bits(), sum.to_bits(), "sum for key {k} is bit-exact");
    }
}

#[test]
fn wire_loss_and_corruption_are_retried_and_the_fold_survives() {
    let clean = run_backend_sunk(&tiny(), Backend::Kryo, &mut NoopSink).unwrap();

    let mut cfg = tiny();
    cfg.checksum = true;
    let mut spec = quiet_spec(0xFA17_0001);
    spec.link_loss = 0.4;
    spec.wire_corruption = 0.4;
    cfg.faults = Some(spec);

    let run = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap();
    let f = run.report.faults.expect("fault counters rendered");
    assert!(f.lost_messages > 0, "loss rate 0.4 must lose transfers");
    assert!(
        f.wire_corruptions > 0,
        "corruption rate 0.4 must corrupt transfers"
    );
    assert_eq!(
        f.retries,
        f.lost_messages + f.wire_corruptions,
        "every failed attempt is exactly one retry"
    );
    assert_eq!(
        f.checksum_errors, f.wire_corruptions,
        "every planned corruption is caught by the CRC frame"
    );
    assert!(
        f.recovery_ns > 0.0,
        "timeouts and backoff cost simulated time"
    );
    assert!(
        f.fabric_bytes > run.report.wire_bytes,
        "retransmissions put extra bytes on the fabric"
    );
    let goodput = f.goodput(run.report.wire_bytes);
    assert!(
        goodput > 0.0 && goodput < 1.0,
        "goodput {goodput} must degrade"
    );
    assert!(
        run.report.net.makespan_ns > clean.report.net.makespan_ns,
        "recovery must inflate the makespan"
    );
    // Recovery is exact: the aggregate matches the fault-free run and
    // the dataset's independently computed fold.
    assert_eq!(run.fold, clean.fold);
    assert_fold_exact(&run.fold, &cfg);
}

#[test]
fn wire_corruption_without_checksum_is_a_typed_error() {
    let mut cfg = tiny();
    let mut spec = quiet_spec(1);
    spec.wire_corruption = 0.1;
    cfg.faults = Some(spec);
    assert_eq!(
        run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap_err(),
        ShuffleError::ChecksumRequired
    );
}

#[test]
fn mapper_death_reexecutes_and_preserves_the_fold() {
    let clean = run_backend_sunk(&tiny(), Backend::Kryo, &mut NoopSink).unwrap();

    let mut cfg = tiny();
    let mut spec = quiet_spec(0xFA17_0002);
    spec.mapper_death = 1.0; // every mapper dies once
    cfg.faults = Some(spec);

    let run = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap();
    let f = run.report.faults.expect("fault counters rendered");
    assert_eq!(
        f.mapper_deaths, 3,
        "rate 1.0 kills each mapper's first attempt"
    );
    assert!(f.reexec_ns > 0.0);
    assert!(
        run.report.map_makespan_ns > clean.report.map_makespan_ns,
        "re-execution inflates the map stage"
    );
    assert_eq!(
        run.fold, clean.fold,
        "re-executed mappers reproduce their batches"
    );
    assert_eq!(run.report.wire_bytes, clean.report.wire_bytes);
}

#[test]
fn accelerator_faults_degrade_to_the_software_fallback() {
    let clean = run_backend_sunk(&tiny(), Backend::Cereal, &mut NoopSink).unwrap();

    let mut cfg = tiny();
    let mut spec = quiet_spec(0xFA17_0003);
    spec.accel_fault = 1.0; // every accelerator request faults
    cfg.faults = Some(spec);

    let run = run_backend_sunk(&cfg, Backend::Cereal, &mut NoopSink).unwrap();
    let f = run.report.faults.expect("fault counters rendered");
    assert_eq!(
        f.accel_faults, run.report.messages,
        "rate 1.0 faults every accelerator flush"
    );
    assert!(f.fallback_ns > 0.0, "fallback serialization is charged");
    assert_eq!(
        run.fold, clean.fold,
        "degraded partitions still fold exactly"
    );

    // Software backends never touch the accelerator: same spec, no
    // accelerator faults drawn.
    let sw = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap();
    assert_eq!(sw.report.faults.unwrap().accel_faults, 0);
}

#[test]
fn spill_read_errors_are_retried_on_the_mapper_clock() {
    let mut base = tiny();
    base.spill_bytes = 1; // spill every sealed batch
    let clean = run_backend_sunk(&base, Backend::Kryo, &mut NoopSink).unwrap();

    let mut cfg = base;
    let mut spec = quiet_spec(0xFA17_0004);
    spec.disk_read_error = 0.4;
    cfg.faults = Some(spec);

    let run = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap();
    let f = run.report.faults.expect("fault counters rendered");
    assert!(f.spill_retries > 0, "read-error rate 0.4 must trip retries");
    assert!(
        f.recovery_ns > 0.0,
        "retries and backoff cost simulated time"
    );
    assert!(
        run.report.map_makespan_ns > clean.report.map_makespan_ns,
        "failed reads inflate the map stage"
    );
    assert_eq!(run.fold, clean.fold);
    // The spill ledger's counters are unchanged — the retry time is
    // accounted separately as recovery — but failed attempts occupy the
    // device, so clean fetches can queue behind them.
    let (s, cs) = (run.report.spill.unwrap(), clean.report.spill.unwrap());
    assert_eq!(s.spills, cs.spills);
    assert_eq!(s.spilled_bytes, cs.spilled_bytes);
    assert_eq!(s.spill_ns, cs.spill_ns);
    assert_eq!(s.fetches, cs.fetches);
    assert!(
        s.fetch_ns >= cs.fetch_ns,
        "failed reads only delay clean fetches"
    );
}

#[test]
fn faulted_report_is_byte_identical_for_any_job_count() {
    let mut cfg = tiny();
    cfg.checksum = true;
    cfg.faults = Some(FaultConfig::uniform(0.2, 0xFA17_0005));
    cfg.spill_bytes = 1;

    let backends = [Backend::Kryo, Backend::Cereal];
    cfg.jobs = 1;
    let one = run_suite(&cfg, &backends).unwrap().to_json();
    cfg.jobs = 4;
    let four = run_suite(&cfg, &backends).unwrap().to_json();
    assert_eq!(one, four, "fault schedule must not depend on thread count");
}

#[test]
fn every_backend_recovers_the_exact_fold_under_uniform_faults() {
    let mut cfg = tiny();
    cfg.checksum = true;
    cfg.faults = Some(FaultConfig::uniform(0.25, 0xFA17_0006));
    // run_suite cross-checks the folds; also pin them to the dataset.
    let report = run_suite(&cfg, Backend::ALL).unwrap();
    for b in &report.backends {
        assert_eq!(b.records, (3 * 96) as u64, "{} lost records", b.name);
    }
    let run = run_backend_sunk(&cfg, Backend::Java, &mut NoopSink).unwrap();
    assert_fold_exact(&run.fold, &cfg);
}

#[test]
fn zero_rate_injection_reproduces_the_fault_free_numbers() {
    let clean = run_backend_sunk(&tiny(), Backend::Kryo, &mut NoopSink).unwrap();

    let mut cfg = tiny();
    cfg.faults = Some(quiet_spec(99));
    let run = run_backend_sunk(&cfg, Backend::Kryo, &mut NoopSink).unwrap();

    let f = run.report.faults.expect("counters render, all zero");
    assert_eq!(f.retries, 0);
    assert_eq!(f.mapper_deaths, 0);
    assert_eq!(f.accel_faults, 0);
    assert_eq!(f.spill_retries, 0);
    assert_eq!(f.recovery_ns, 0.0);
    assert_eq!(f.fabric_bytes, run.report.wire_bytes);

    assert_eq!(run.report.wire_bytes, clean.report.wire_bytes);
    assert_eq!(run.report.messages, clean.report.messages);
    assert_eq!(run.report.ser_busy_ns, clean.report.ser_busy_ns);
    assert_eq!(run.report.net, clean.report.net);
    assert_eq!(run.fold, clean.fold);
}
