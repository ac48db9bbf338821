//! Trace-driven CPU timing model (the paper's host, Table I).
//!
//! Consumes the [`serializers::Op`] stream a functional serializer emits
//! and produces cycles, IPC, LLC miss rate and DRAM bandwidth — the four
//! panels of the paper's Fig. 3. The model captures exactly the
//! bottlenecks §III identifies:
//!
//! * **dependent (pointer-chasing) loads serialize**: a load flagged
//!   `dependent` cannot issue before the previous chain load's data is
//!   back, so graph traversal runs at memory latency, not bandwidth;
//! * **independent loads overlap up to an MLP cap** modeled after the
//!   instruction-window/LSQ limit (10 outstanding misses), so even
//!   streaming phases cannot saturate the DDR4 channels from one core;
//! * reflective accesses and hash probes perform *internal* dependent
//!   loads into dictionary/hash-table regions larger than the private
//!   caches, which is why Java S/D's IPC hovers around 1.
//!
//! The model is deliberately *not* cycle-accurate micro-architecture — it
//! is the standard trace-driven abstraction used for first-order DSE.
//! It models one machine, the paper's: the core parameters are the
//! constants [`FREQ_GHZ`], [`ISSUE_WIDTH`], [`MLP`] and the three cache
//! hit latencies below, and every per-op cost lives in the frozen
//! [`costs::OP_COSTS`] table.

pub mod costs;

use crate::cache::{Hierarchy, HitLevel};
use crate::dram::Dram;
use serializers::{Op, TraceSink};

pub use costs::OpCosts;
use costs::OP_COSTS;

/// Operation classes the per-op accounting attributes time to, named as
/// the telemetry histograms of their host-CPU nanoseconds. Order matches
/// [`Cpu::op_classes`] output.
pub const OP_CLASS_NAMES: [&str; 10] = [
    "cpu.load.dep_ns",
    "cpu.load.indep_ns",
    "cpu.store_ns",
    "cpu.alu_ns",
    "cpu.branch_ns",
    "cpu.call_ns",
    "cpu.reflect_call_ns",
    "cpu.str_compare_ns",
    "cpu.hash_lookup_ns",
    "cpu.alloc_ns",
];

fn op_class(op: &Op) -> usize {
    match op {
        Op::Load {
            dependent: true, ..
        } => 0,
        Op::Load {
            dependent: false, ..
        } => 1,
        Op::Store { .. } => 2,
        Op::Alu(_) => 3,
        Op::Branch => 4,
        Op::Call => 5,
        Op::ReflectCall => 6,
        Op::StrCompare(_) => 7,
        Op::HashLookup => 8,
        Op::Alloc(_) => 9,
    }
}

/// Core frequency in GHz (Table I: i7-7820X, 3.6 GHz).
pub const FREQ_GHZ: f64 = 3.6;
/// Sustained issue width in uops per cycle.
pub const ISSUE_WIDTH: f64 = 4.0;
/// Maximum overlapped outstanding misses (window/LSQ-limited MLP).
pub const MLP: usize = 10;
/// L1 hit latency in cycles.
const L1_LATENCY: f64 = 4.0;
/// L2 hit latency in cycles.
const L2_LATENCY: f64 = 14.0;
/// L3 hit latency in cycles.
const L3_LATENCY: f64 = 44.0;

/// Measured outcome of one traced phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuReport {
    /// Total cycles.
    pub cycles: f64,
    /// Wall time in nanoseconds.
    pub ns: f64,
    /// Micro-ops executed.
    pub uops: u64,
    /// Achieved uops per cycle.
    pub ipc: f64,
    /// LLC miss rate.
    pub llc_miss_rate: f64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Achieved DRAM bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Fraction of peak DRAM bandwidth used.
    pub bandwidth_util: f64,
}

/// The CPU model. Implements [`TraceSink`]; feed it a serializer run and
/// call [`Cpu::report`].
///
/// ```
/// use sim::Cpu;
/// use serializers::{Op, TraceSink};
/// let mut cpu = Cpu::host();
/// cpu.op(Op::Load { addr: 0x4000_0000, bytes: 8, dependent: true });
/// cpu.op(Op::Alu(12));
/// let r = cpu.report();
/// assert!(r.ns > 40.0, "a cold dependent load pays DRAM latency");
/// ```
#[derive(Clone, Debug)]
pub struct Cpu {
    cache: Hierarchy,
    dram: Dram,
    /// Issue-side clock in cycles.
    cycle: f64,
    /// Completion time of the last dependent-chain load.
    chain_ready: f64,
    /// Completion times of in-flight independent misses (≤ mlp).
    outstanding: Vec<f64>,
    /// Furthest completion seen (for end-of-run drain).
    horizon: f64,
    uops: u64,
    branches: u64,
    /// Deterministic generator for internal dictionary/hash addresses.
    lcg: u64,
    writebacks_charged: u64,
    wb_spread: u64,
    /// Issue-clock time and uops attributed to each op class.
    class_cycles: [f64; OP_CLASS_NAMES.len()],
    class_uops: [u64; OP_CLASS_NAMES.len()],
}

fn ns_of(cycles: f64) -> f64 {
    cycles / FREQ_GHZ
}

fn cycles_of_ns(ns: f64) -> f64 {
    ns * FREQ_GHZ
}

/// Seed of the internal dictionary/hash address generator.
const LCG_SEED: u64 = 0x243f_6a88_85a3_08d3;

impl Cpu {
    /// The Table I host core with a fresh memory system.
    pub fn host() -> Self {
        Cpu {
            cache: Hierarchy::i7_7820x(),
            dram: Dram::default(),
            cycle: 0.0,
            chain_ready: 0.0,
            outstanding: Vec::new(),
            horizon: 0.0,
            uops: 0,
            branches: 0,
            lcg: LCG_SEED,
            writebacks_charged: 0,
            wb_spread: 0,
            class_cycles: [0.0; OP_CLASS_NAMES.len()],
            class_uops: [0; OP_CLASS_NAMES.len()],
        }
    }

    /// Returns the CPU to the state [`Cpu::host`] gives it, with cold
    /// caches and an idle DRAM, without reallocating either: the caches
    /// reset in O(1) ([`crate::cache::Cache::reset`]), the DRAM ledgers
    /// are emptied. Every later report is bit-identical to a new CPU's
    /// over the same ops. A CPU built [`Cpu::with_dram`] resets the
    /// shared DRAM it holds as well.
    pub fn reset(&mut self) {
        // Destructured so that a field added to `Cpu` must be handled here.
        let Cpu {
            cache,
            dram,
            cycle,
            chain_ready,
            outstanding,
            horizon,
            uops,
            branches,
            lcg,
            writebacks_charged,
            wb_spread,
            class_cycles,
            class_uops,
        } = self;
        cache.reset();
        dram.reset();
        outstanding.clear();
        (*cycle, *chain_ready, *horizon) = (0.0, 0.0, 0.0);
        (*uops, *branches, *writebacks_charged, *wb_spread) = (0, 0, 0, 0);
        *lcg = LCG_SEED;
        *class_cycles = [0.0; OP_CLASS_NAMES.len()];
        *class_uops = [0; OP_CLASS_NAMES.len()];
    }

    /// A CPU sharing an existing DRAM system — used to model multiple
    /// cores: each core gets private caches, all contend for the same
    /// channels (the DRAM model's time-bucket ledger makes sequential
    /// simulation of concurrent cores order-insensitive).
    pub fn with_dram(dram: Dram) -> Self {
        let mut cpu = Cpu::host();
        cpu.dram = dram;
        cpu
    }

    /// Extracts the DRAM system (to hand to the next simulated core).
    pub fn into_dram(self) -> Dram {
        self.dram
    }

    fn issue_uops(&mut self, n: u32) {
        self.uops += u64::from(n);
        self.cycle += f64::from(n) / ISSUE_WIDTH;
    }

    fn next_rand(&mut self) -> u64 {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.lcg >> 17
    }

    /// Memory latency in cycles for a serviced access, issuing DRAM
    /// transactions for misses.
    fn mem_latency(&mut self, addr: u64, bytes: u64, write: bool, issue_cycle: f64) -> f64 {
        let before_wb = self.cache.writebacks;
        let level = self.cache.access_range(addr, bytes, write);
        // Dirty LLC evictions drain asynchronously but consume bandwidth.
        let new_wb = self.cache.writebacks - before_wb;
        for _ in 0..new_wb {
            self.wb_spread = self.wb_spread.wrapping_add(64);
            let now_ns = ns_of(issue_cycle);
            self.dram.write(0x7000_0000 + self.wb_spread, 64, now_ns);
            self.writebacks_charged += 1;
        }
        match level {
            HitLevel::L1 => L1_LATENCY,
            HitLevel::L2 => L2_LATENCY,
            HitLevel::L3 => L3_LATENCY,
            HitLevel::Memory => {
                let lines = (addr + bytes.max(1) - 1) / 64 - addr / 64 + 1;
                let now_ns = ns_of(issue_cycle);
                let done_ns = self.dram.read(addr, lines * 64, now_ns);
                cycles_of_ns(done_ns - now_ns)
            }
        }
    }

    fn dependent_load(&mut self, addr: u64, bytes: u64) {
        self.issue_uops(OP_COSTS.load_uops);
        let issue = self.cycle.max(self.chain_ready);
        let lat = self.mem_latency(addr, bytes, false, issue);
        let done = issue + lat;
        self.chain_ready = done;
        // The consumer of a chased pointer stalls the pipeline.
        self.cycle = done;
        self.horizon = self.horizon.max(done);
    }

    fn independent_load(&mut self, addr: u64, bytes: u64) {
        self.issue_uops(OP_COSTS.load_uops);
        let mut issue = self.cycle;
        // MLP cap: with a full miss window, wait for the earliest slot.
        self.outstanding.retain(|&t| t > issue);
        if self.outstanding.len() >= MLP {
            let earliest = self
                .outstanding
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            issue = issue.max(earliest);
            self.outstanding.retain(|&t| t > issue);
            self.cycle = issue;
        }
        let lat = self.mem_latency(addr, bytes, false, issue);
        let done = issue + lat;
        if lat > L3_LATENCY {
            self.outstanding.push(done);
        }
        self.horizon = self.horizon.max(done);
    }

    fn store(&mut self, addr: u64, bytes: u64) {
        self.issue_uops(OP_COSTS.store_uops);
        // Stores retire through the store buffer; the fill traffic of a
        // write-allocate miss still hits DRAM.
        let issue = self.cycle;
        let _ = self.mem_latency(addr, bytes, true, issue);
    }

    /// Internal dependent load into a synthetic runtime region
    /// (reflection dictionaries, hash tables).
    fn internal_chase(&mut self, base: u64, span: u64) {
        let addr = base + (self.next_rand() % (span / 64)) * 64;
        self.dependent_load(addr, 8);
    }

    /// Finishes the run and reports.
    pub fn report(&self) -> CpuReport {
        let cycles = self.cycle.max(self.horizon);
        let ns = ns_of(cycles);
        CpuReport {
            cycles,
            ns,
            uops: self.uops,
            ipc: telemetry::ratio(self.uops as f64, cycles),
            llc_miss_rate: self.cache.llc_miss_rate(),
            dram_bytes: self.dram.total_bytes(),
            bandwidth_gbps: self.dram.bandwidth_gbps(ns),
            bandwidth_util: self.dram.utilization(ns),
        }
    }

    /// Read access to the cache hierarchy (tests, diagnostics).
    pub fn cache(&self) -> &Hierarchy {
        &self.cache
    }

    /// Read access to the DRAM model.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Per-class `(name, ns, uops)` attribution for classes that
    /// executed, in [`OP_CLASS_NAMES`] order. Attribution is issue-clock
    /// time: overlapped miss latency lands on the op that stalled for it.
    pub fn op_classes(&self) -> Vec<(&'static str, f64, u64)> {
        OP_CLASS_NAMES
            .iter()
            .zip(self.class_cycles.iter().zip(&self.class_uops))
            .filter(|(_, (&c, &u))| c > 0.0 || u > 0)
            .map(|(&name, (&c, &u))| (name, ns_of(c), u))
            .collect()
    }

    /// Executes one traced operation. This is the single implementation
    /// behind both [`TraceSink::op`] and the batched [`TraceSink::ops`]
    /// slice path, so the two are bit-identical by construction
    /// (golden-tested in `tests/prop_timing.rs`).
    pub fn exec(&mut self, op: Op) {
        let class = op_class(&op);
        let (cycle0, uops0) = (self.cycle, self.uops);
        self.exec_inner(op);
        self.class_cycles[class] += self.cycle - cycle0;
        self.class_uops[class] += self.uops - uops0;
    }

    fn exec_inner(&mut self, op: Op) {
        let costs = OP_COSTS;
        match op {
            Op::Load {
                addr,
                bytes,
                dependent,
            } => {
                if dependent {
                    self.dependent_load(addr, u64::from(bytes));
                } else {
                    self.independent_load(addr, u64::from(bytes));
                }
            }
            Op::Store { addr, bytes } => self.store(addr, u64::from(bytes)),
            Op::Alu(n) => self.issue_uops(n),
            Op::Branch => {
                self.issue_uops(costs.branch_uops);
                self.branches += 1;
                // Amortized misprediction cost.
                self.cycle += costs.branch_misp_rate * costs.branch_misp_penalty;
            }
            Op::Call => self.issue_uops(costs.call_uops),
            Op::ReflectCall => {
                self.issue_uops(costs.reflect_uops);
                for _ in 0..costs.reflect_dep_loads {
                    self.internal_chase(costs::DICT_REGION_BASE, costs::DICT_REGION_BYTES);
                }
            }
            Op::StrCompare(n) => {
                self.issue_uops(costs.str_cmp_base_uops + n.div_ceil(costs.str_cmp_bytes_per_uop));
            }
            Op::HashLookup => {
                self.issue_uops(costs.hash_uops);
                for _ in 0..costs.hash_dep_loads {
                    self.internal_chase(costs::HASH_REGION_BASE, costs::HASH_REGION_BYTES);
                }
            }
            Op::Alloc(bytes) => {
                // Zero-init fill traffic is accounted by the header/field
                // stores the deserializers emit at the real addresses.
                self.issue_uops(
                    costs.alloc_base_uops + bytes.div_ceil(costs.alloc_zero_bytes_per_uop),
                );
            }
        }
    }
}

impl TraceSink for Cpu {
    fn op(&mut self, op: Op) {
        self.exec(op);
    }

    /// Slice consumption: one virtual call covers the whole batch, and
    /// the per-op loop below is monomorphic — the point of trace
    /// batching. The op sequence (and therefore every simulated time) is
    /// exactly what per-op delivery produces.
    fn ops(&mut self, ops: &[Op]) {
        for &op in ops {
            self.exec(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependent_chain_runs_at_latency() {
        let mut cpu = Cpu::host();
        // 1000 dependent loads over a 64 MB region: all DRAM misses.
        let mut addr = 0x1000_0000u64;
        for i in 0..1000u64 {
            cpu.op(Op::Load {
                addr,
                bytes: 8,
                dependent: true,
            });
            addr = 0x1000_0000 + ((i * 2654435761) % (64 << 20)) / 64 * 64;
        }
        let r = cpu.report();
        // ≥ 40 ns per load: nothing overlaps.
        assert!(r.ns >= 1000.0 * 40.0, "got {} ns", r.ns);
        assert!(
            r.ipc < 0.1,
            "pointer chasing must crater IPC, got {}",
            r.ipc
        );
        assert!(r.bandwidth_util < 0.05);
    }

    #[test]
    fn independent_streams_overlap() {
        let mut chase = Cpu::host();
        let mut stream = Cpu::host();
        for i in 0..20_000u64 {
            let addr = 0x1000_0000 + i * 64;
            chase.op(Op::Load {
                addr,
                bytes: 8,
                dependent: true,
            });
            stream.op(Op::Load {
                addr,
                bytes: 8,
                dependent: false,
            });
        }
        let rc = chase.report();
        let rs = stream.report();
        assert!(
            rs.ns * 3.0 < rc.ns,
            "independent {} ns should be ≫ faster than dependent {} ns",
            rs.ns,
            rc.ns
        );
        assert!(rs.bandwidth_util > rc.bandwidth_util * 2.0);
    }

    #[test]
    fn mlp_cap_limits_streaming_bandwidth() {
        // Even a pure independent-miss stream must stay well below peak:
        // 10 in-flight misses × 64 B per ~43 ns window ≈ 15 GB/s ≈ 20 %.
        let mut cpu = Cpu::host();
        for i in 0..50_000u64 {
            cpu.op(Op::Load {
                addr: 0x2000_0000 + i * 64,
                bytes: 8,
                dependent: false,
            });
        }
        let r = cpu.report();
        assert!(
            r.bandwidth_util < 0.5,
            "window-limited MLP must not saturate DRAM, got {}",
            r.bandwidth_util
        );
        assert!(r.bandwidth_util > 0.02);
    }

    #[test]
    fn alu_work_reaches_issue_width() {
        let mut cpu = Cpu::host();
        cpu.op(Op::Alu(1_000_000));
        let r = cpu.report();
        assert!(
            (r.ipc - 4.0).abs() < 0.1,
            "pure ALU should hit width, got {}",
            r.ipc
        );
    }

    #[test]
    fn reflection_is_much_slower_than_calls() {
        let mut refl = Cpu::host();
        let mut call = Cpu::host();
        for _ in 0..10_000 {
            refl.op(Op::ReflectCall);
            call.op(Op::Call);
        }
        let rr = refl.report();
        let rc = call.report();
        assert!(
            rr.ns > rc.ns * 20.0,
            "reflection {} ns vs call {} ns",
            rr.ns,
            rc.ns
        );
    }

    #[test]
    fn l1_hits_are_cheap() {
        let mut cpu = Cpu::host();
        // Touch once to warm, then hammer the same line dependently.
        for _ in 0..10_001 {
            cpu.op(Op::Load {
                addr: 0x1000,
                bytes: 8,
                dependent: true,
            });
        }
        let r = cpu.report();
        // ~4 cycles per L1 hit ≈ 1.1 ns.
        assert!(r.ns < 10_001.0 * 3.0, "got {} ns", r.ns);
    }

    #[test]
    fn stores_do_not_stall_but_count_traffic() {
        let mut cpu = Cpu::host();
        for i in 0..20_000u64 {
            cpu.op(Op::Store {
                addr: 0x4000_0000 + i * 64,
                bytes: 8,
            });
        }
        let r = cpu.report();
        assert!(r.dram_bytes > 0, "write-allocate fills must hit DRAM");
        assert!(
            r.ipc > 2.0,
            "stores retire via the store buffer, got {}",
            r.ipc
        );
    }

    #[test]
    fn branches_pay_amortized_misprediction() {
        let mut cpu = Cpu::host();
        for _ in 0..100_000 {
            cpu.op(Op::Branch);
        }
        let r = cpu.report();
        // 1 uop/4-wide = 0.25 cyc + 0.03×14 = 0.42 cyc ⇒ IPC ≈ 1.5.
        assert!(r.ipc < 2.0 && r.ipc > 1.0, "got {}", r.ipc);
    }

    #[test]
    fn op_class_attribution_sums_to_totals() {
        let mut cpu = Cpu::host();
        cpu.op(Op::Alu(100));
        cpu.op(Op::Load {
            addr: 0x1000_0000,
            bytes: 8,
            dependent: true,
        });
        cpu.op(Op::Branch);
        let classes = cpu.op_classes();
        assert!(classes.iter().any(|c| c.0 == "cpu.load.dep_ns"));
        assert!(classes.iter().any(|c| c.0 == "cpu.alu_ns"));
        let uops: u64 = classes.iter().map(|c| c.2).sum();
        assert_eq!(uops, cpu.report().uops);
        let ns: f64 = classes.iter().map(|c| c.1).sum();
        assert!((ns - ns_of(cpu.cycle)).abs() < 1e-9, "{ns}");
    }

    #[test]
    fn report_zero_state() {
        let cpu = Cpu::host();
        let r = cpu.report();
        assert_eq!(r.uops, 0);
        assert_eq!(r.ipc, 0.0);
    }
}
