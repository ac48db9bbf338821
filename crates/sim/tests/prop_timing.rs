//! Seeded randomized tests on the timing substrate: physical sanity
//! invariants that must hold for any access pattern.
//!
//! Formerly proptest properties; now deterministic loops over the
//! in-repo PRNG so the suite runs offline.

use sdheap::rng::Rng;
use serializers::{Op, OpBuf, TraceSink};
use sim::{Cpu, Dram, DramConfig, Hierarchy, Mai, MaiConfig, ReorderBuffer, Tlb};

/// DRAM completions respect causality and service time; the byte meter
/// is exact; utilization never exceeds 1.
#[test]
fn dram_is_physical() {
    let mut rng = Rng::new(0x51_0001);
    for _ in 0..50 {
        let mut dram = Dram::new(DramConfig::default());
        let mut total = 0u64;
        let mut horizon: f64 = 0.0;
        for _ in 0..rng.gen_range_usize(1, 200) {
            let addr = rng.next_u64() & 0xffff_ffff;
            let bytes = rng.gen_range_u64(1, 4096);
            let now = rng.gen_range_f64(0.0, 100_000.0);
            let done = dram.read(addr, bytes, now);
            let service = bytes as f64 / 19.2;
            assert!(done >= now + service + 39.999, "done {done} < now {now} + service");
            total += bytes;
            horizon = horizon.max(done);
        }
        assert_eq!(dram.total_bytes(), total);
        assert!(dram.utilization(horizon) <= 1.0 + 1e-9);
    }
}

/// Issuing the same accesses later never makes them complete earlier.
#[test]
fn dram_is_monotone_in_time() {
    let mut rng = Rng::new(0x51_0002);
    for _ in 0..500 {
        let addr = rng.next_u64() & 0xffff_ffff;
        let bytes = rng.gen_range_u64(1, 1024);
        let t1 = rng.gen_range_f64(0.0, 100_000.0);
        let dt = rng.gen_range_f64(1.0, 100_000.0);
        let mut d1 = Dram::new(DramConfig::default());
        let mut d2 = Dram::new(DramConfig::default());
        let a = d1.read(addr, bytes, t1);
        let b = d2.read(addr, bytes, t1 + dt);
        assert!(b >= a);
    }
}

/// The MAI never issues more DRAM transactions than block requests, and
/// coalescing strictly reduces traffic for overlapping requests.
#[test]
fn mai_coalescing_reduces_traffic() {
    let mut rng = Rng::new(0x51_0003);
    for _ in 0..200 {
        let offsets: Vec<u64> =
            (0..rng.gen_range_usize(2, 50)).map(|_| rng.gen_range_u64(0, 256)).collect();
        let mut mai = Mai::new(MaiConfig::default());
        let mut dram = Dram::new(DramConfig::default());
        for &off in &offsets {
            mai.read(&mut dram, 0x1000 + off, 8, 0.0);
        }
        let stats = mai.stats();
        // Requests are counted at block granularity: an 8 B read can
        // straddle two 32 B blocks.
        assert!(stats.requests >= offsets.len() as u64);
        assert!(stats.requests <= 2 * offsets.len() as u64);
        assert_eq!(dram.reads() + stats.coalesced, stats.requests);
        // 256+8 B span = at most 9 distinct 32 B blocks.
        assert!(dram.reads() <= 9);
    }
}

/// Cache miss rates stay in [0, 1] and hits+misses equals accesses.
#[test]
fn cache_rates_are_probabilities() {
    let mut rng = Rng::new(0x51_0004);
    for _ in 0..50 {
        let addrs: Vec<(u64, bool)> = (0..rng.gen_range_usize(1, 300))
            .map(|_| (rng.next_u64() & 0xffff_ffff, rng.gen_bool(0.5)))
            .collect();
        let mut h = Hierarchy::i7_7820x();
        for &(addr, write) in &addrs {
            h.access(addr, write);
        }
        for rate in [h.l1.miss_rate(), h.l2.miss_rate(), h.llc_miss_rate()] {
            assert!((0.0..=1.0).contains(&rate));
        }
        assert_eq!(h.l1.hits() + h.l1.misses(), addrs.len() as u64);
    }
}

/// A reorder buffer's outputs are monotone regardless of input order.
#[test]
fn reorder_buffer_is_monotone() {
    let mut rng = Rng::new(0x51_0005);
    for _ in 0..100 {
        let mut rob = ReorderBuffer::new();
        let mut last = 0.0f64;
        for _ in 0..rng.gen_range_usize(1, 100) {
            let t = rng.gen_range_f64(0.0, 1_000_000.0);
            let out = rob.deliver(t);
            assert!(out >= last);
            assert!(out >= t);
            last = out;
        }
    }
}

/// Golden equivalence of the three trace delivery modes: per-op calls,
/// one `ops` slice, and `OpBuf`-batched delivery must produce
/// bit-identical CPU reports — batching is a dispatch optimization, not
/// a model change.
#[test]
fn cpu_batched_trace_is_bit_identical_to_per_op() {
    let mut rng = Rng::new(0x51_0007);
    for round in 0..10 {
        let n = rng.gen_range_usize(100, 3000);
        let trace: Vec<Op> = (0..n)
            .map(|_| match rng.gen_range_u64(0, 9) {
                0 => Op::Load {
                    addr: 0x1000_0000 + rng.gen_range_u64(0, 1 << 24),
                    bytes: 8,
                    dependent: rng.gen_bool(0.5),
                },
                1 => Op::Store {
                    addr: 0x4000_0000 + rng.gen_range_u64(0, 1 << 24),
                    bytes: 8,
                },
                2 => Op::Alu(rng.gen_range_u64(1, 40) as u32),
                3 => Op::Branch,
                4 => Op::Call,
                5 => Op::ReflectCall,
                6 => Op::StrCompare(rng.gen_range_u64(1, 64) as u32),
                7 => Op::HashLookup,
                _ => Op::Alloc(rng.gen_range_u64(8, 512) as u32),
            })
            .collect();

        let mut per_op = Cpu::host();
        for &op in &trace {
            per_op.op(op);
        }
        let mut sliced = Cpu::host();
        sliced.ops(&trace);
        let mut buffered = Cpu::host();
        let mut buf = OpBuf::for_sink(&buffered);
        for &op in &trace {
            buf.push(op);
            buf.maybe_flush(&mut buffered);
        }
        buf.flush(&mut buffered);

        let a = per_op.report();
        for (label, r) in [("slice", sliced.report()), ("buffered", buffered.report())] {
            assert_eq!(a.cycles.to_bits(), r.cycles.to_bits(), "round {round} {label} cycles");
            assert_eq!(a.ns.to_bits(), r.ns.to_bits(), "round {round} {label} ns");
            assert_eq!(a.uops, r.uops, "round {round} {label} uops");
            assert_eq!(a.dram_bytes, r.dram_bytes, "round {round} {label} dram bytes");
            assert_eq!(
                a.llc_miss_rate.to_bits(),
                r.llc_miss_rate.to_bits(),
                "round {round} {label} llc"
            );
            assert_eq!(
                a.bandwidth_util.to_bits(),
                r.bandwidth_util.to_bits(),
                "round {round} {label} bw"
            );
        }
    }
}

/// TLB hit/miss accounting is exact and repeated pages always hit within
/// capacity.
#[test]
fn tlb_accounting() {
    let mut rng = Rng::new(0x51_0006);
    for _ in 0..100 {
        let pages: Vec<u64> =
            (0..rng.gen_range_usize(1, 200)).map(|_| rng.gen_range_u64(0, 64)).collect();
        let mut tlb = Tlb::default();
        for &p in &pages {
            tlb.translate(p << 30);
        }
        let distinct: std::collections::HashSet<_> = pages.iter().collect();
        // 64 distinct 1 GB pages fit in 128 entries: misses == distinct.
        assert_eq!(tlb.misses(), distinct.len() as u64);
        assert_eq!(tlb.hits() + tlb.misses(), pages.len() as u64);
    }
}
