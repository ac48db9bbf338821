//! Per-operation cost constants for the CPU model — the single source of
//! truth promised in DESIGN.md.
//!
//! These were set once from first principles (instruction counts of the
//! JDK/Kryo code paths they stand for), sanity-checked against the
//! paper's §III observations (software S/D IPC ≈ 1, Kryo ≈ 2.3× Java on
//! serialization and ≈ 50× on deserialization), and then frozen. The
//! Cereal accelerator model shares none of these — its performance falls
//! out of the architecture model in the `cereal` crate.

/// Micro-op and behavioral costs of each [`serializers::Op`] class.
#[derive(Clone, Copy, Debug)]
pub struct OpCosts {
    /// Address generation + load issue.
    pub load_uops: u32,
    /// Address generation + store issue (retires via the store buffer).
    pub store_uops: u32,
    /// Compare + branch.
    pub branch_uops: u32,
    /// Fraction of branches mispredicted (S/D control flow is data-
    /// dependent but highly repetitive).
    pub branch_misp_rate: f64,
    /// Pipeline refill penalty in cycles.
    pub branch_misp_penalty: f64,
    /// Plain call + return (argument setup, frame).
    pub call_uops: u32,
    /// `java.lang.reflect` accessor body: access-control check, modifier
    /// tests, box/unbox, invocation trampoline — ~80 instructions in the
    /// JDK fast path.
    pub reflect_uops: u32,
    /// Dependent dictionary loads inside a reflective access (Field
    /// object, type metadata) — these are the pointer chases that sink
    /// Java S/D's IPC.
    pub reflect_dep_loads: u32,
    /// Loop setup for a string comparison.
    pub str_cmp_base_uops: u32,
    /// Bytes compared per uop (SIMD-ish 8 B/cycle).
    pub str_cmp_bytes_per_uop: u32,
    /// Hash + probe arithmetic of one hash-table lookup.
    pub hash_uops: u32,
    /// Dependent probe loads per hash lookup (bucket then entry).
    pub hash_dep_loads: u32,
    /// TLAB bump-pointer allocation fast path: pointer bump, class-init
    /// check, header stores.
    pub alloc_base_uops: u32,
    /// Zero-initialization throughput: bytes cleared per uop.
    pub alloc_zero_bytes_per_uop: u32,
}

/// The frozen cost table every [`crate::Cpu`] runs on.
pub const OP_COSTS: OpCosts = OpCosts {
    // A managed-runtime load/store is never one instruction:
    // null/bounds checks, compressed-oop decode, write barriers
    // and stream-position bookkeeping ride along.
    load_uops: 2,
    store_uops: 6,
    branch_uops: 1,
    branch_misp_rate: 0.03,
    branch_misp_penalty: 14.0,
    // Virtual dispatch through a serializer interface.
    call_uops: 8,
    reflect_uops: 120,
    reflect_dep_loads: 2,
    str_cmp_base_uops: 8,
    str_cmp_bytes_per_uop: 8,
    hash_uops: 25,
    hash_dep_loads: 1,
    alloc_base_uops: 30,
    alloc_zero_bytes_per_uop: 16,
};

/// Byte size of the region the reflection dictionaries (Class/Field
/// objects, method tables) occupy — larger than the private L2, so
/// reflective chases usually cost at least an LLC round trip.
pub const DICT_REGION_BYTES: u64 = 4 << 20;
/// Base address of the dictionary region.
pub const DICT_REGION_BASE: u64 = 0x50_0000_0000;
/// Byte size of the identity-map / type-registry hash-table region. The
/// identity maps of MB-scale object graphs are themselves MB-scale: they
/// overflow the L2 but largely fit in the 11 MB LLC, so each probe costs
/// an LLC round trip with an occasional DRAM miss — consistent with the
/// high-L2-miss, IPC ≈ 1 profile of Fig. 3.
pub const HASH_REGION_BYTES: u64 = 2 << 20;
/// Base address of the hash-table region.
pub const HASH_REGION_BASE: u64 = 0x60_0000_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_table_is_sane() {
        let c = OP_COSTS;
        assert!(
            c.reflect_uops > 10 * c.call_uops,
            "reflection must dwarf a call"
        );
        assert!(c.branch_misp_rate > 0.0 && c.branch_misp_rate < 0.5);
        assert!(c.str_cmp_bytes_per_uop > 0);
        // Const asserts: region sizes must exceed the 1 MB L2.
        const _: () = assert!(HASH_REGION_BYTES > 1 << 20);
        const _: () = assert!(DICT_REGION_BYTES > 1 << 20);
    }
}
