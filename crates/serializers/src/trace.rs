//! Operation traces: the contract between functional serializers and the
//! timing models.
//!
//! Every serializer in this repository is *functional* — it really
//! produces and consumes bytes — and additionally narrates what a CPU
//! would have to execute by emitting [`Op`]s into a [`TraceSink`]. The
//! `sim` crate's CPU model consumes the stream to produce cycles, cache
//! behaviour, and DRAM bandwidth (paper Fig. 3), with zero per-op storage:
//! sinks are streaming, so multi-hundred-MB workloads trace in O(1)
//! memory.
//!
//! Address-space conventions (shared with `sim::dram`):
//! * heap objects live wherever the `sdheap::Heap` put them;
//! * serialized output streams are written at [`OUT_STREAM_BASE`];
//! * input streams being deserialized are read at [`IN_STREAM_BASE`].

/// Base address where serializers model their output stream.
pub const OUT_STREAM_BASE: u64 = 0x20_0000_0000;
/// Base address where deserializers model their input stream.
pub const IN_STREAM_BASE: u64 = 0x30_0000_0000;

/// One architectural operation executed by a software serializer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A memory load. `dependent` marks loads whose address was produced
    /// by an immediately preceding load (pointer chasing) — the CPU model
    /// cannot overlap these, which is the core of the paper's §III
    /// analysis.
    Load {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        bytes: u32,
        /// Part of a dependent (pointer-chasing) chain.
        dependent: bool,
    },
    /// A memory store.
    Store {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        bytes: u32,
    },
    /// `count` simple ALU operations (add, shift, compare, mask).
    Alu(u32),
    /// A conditional branch.
    Branch,
    /// A plain (devirtualized) function call + return.
    Call,
    /// A reflective access (`java.lang.reflect`): the expensive
    /// dictionary-backed call Java S/D performs per field.
    ReflectCall,
    /// A string comparison over `bytes` bytes (type-name resolution).
    StrCompare(u32),
    /// One hash-table probe (identity map, type registry).
    HashLookup,
    /// An object allocation of `bytes` bytes (TLAB-style bump + init).
    Alloc(u32),
}

/// Streaming consumer of operation traces.
pub trait TraceSink {
    /// Consumes one operation.
    fn op(&mut self, op: Op);

    /// Consumes a batch of operations. Semantically identical to calling
    /// [`TraceSink::op`] once per element — the default does exactly
    /// that — but lets timing models amortize the virtual dispatch: the
    /// CPU model replays hundreds of millions of ops on the Scaled/Paper
    /// workload sizes, and one dyn call per *slice* instead of per *op*
    /// is measurably cheaper. Implementations overriding this must keep
    /// the timing bit-identical to the per-op path (test-enforced for
    /// `sim::Cpu`).
    fn ops(&mut self, ops: &[Op]) {
        for &op in ops {
            self.op(op);
        }
    }

    /// `true` if this sink provably ignores every operation
    /// ([`NullSink`]). [`OpBuf`] consults this once and skips op
    /// construction and delivery entirely — the observable outcome
    /// (nothing) is identical, but the buffering work is saved.
    /// Default `false`.
    fn discards_ops(&self) -> bool {
        false
    }
}

/// Discards every operation (functional-only runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn op(&mut self, _op: Op) {}

    fn ops(&mut self, _ops: &[Op]) {}

    fn discards_ops(&self) -> bool {
        true
    }
}

/// Counts operations by class — useful for tests and op-mix reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of loads.
    pub loads: u64,
    /// Loads flagged dependent.
    pub dependent_loads: u64,
    /// Bytes loaded.
    pub load_bytes: u64,
    /// Number of stores.
    pub stores: u64,
    /// Bytes stored.
    pub store_bytes: u64,
    /// ALU operations.
    pub alu: u64,
    /// Branches.
    pub branches: u64,
    /// Calls.
    pub calls: u64,
    /// Reflective calls.
    pub reflect_calls: u64,
    /// String-compare bytes.
    pub str_compare_bytes: u64,
    /// Hash probes.
    pub hash_lookups: u64,
    /// Allocations.
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
}

impl CountingSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total operations of any class.
    pub fn total_ops(&self) -> u64 {
        self.loads
            + self.stores
            + self.alu
            + self.branches
            + self.calls
            + self.reflect_calls
            + self.hash_lookups
            + self.allocs
    }
}

impl TraceSink for CountingSink {
    fn op(&mut self, op: Op) {
        match op {
            Op::Load {
                bytes, dependent, ..
            } => {
                self.loads += 1;
                self.load_bytes += u64::from(bytes);
                if dependent {
                    self.dependent_loads += 1;
                }
            }
            Op::Store { bytes, .. } => {
                self.stores += 1;
                self.store_bytes += u64::from(bytes);
            }
            Op::Alu(n) => self.alu += u64::from(n),
            Op::Branch => self.branches += 1,
            Op::Call => self.calls += 1,
            Op::ReflectCall => self.reflect_calls += 1,
            Op::StrCompare(n) => self.str_compare_bytes += u64::from(n),
            Op::HashLookup => self.hash_lookups += 1,
            Op::Alloc(n) => {
                self.allocs += 1;
                self.alloc_bytes += u64::from(n);
            }
        }
        if matches!(op, Op::StrCompare(_)) {
            // String compares also count as ALU-class work for totals.
            self.alu += 1;
        }
    }
}

/// The one narrator: every serializer buffers its ops here.
///
/// An `OpBuf` is a plain struct the serializer owns, so every `push` is a
/// statically dispatched `Vec` append the compiler can inline. The
/// buffered sequence is handed to the sink in slices via
/// [`TraceSink::ops`], which the contract guarantees is timing-identical
/// to per-op delivery. Serializers flush at object boundaries (and
/// always before returning, error or not), so the sink observes exactly
/// the sequence a per-op narrator would have delivered.
///
/// A buffer built with [`OpBuf::for_sink`] against a sink whose
/// [`TraceSink::discards_ops`] is `true` records nothing: each op costs
/// one predictable branch instead of a `Vec` append.
pub struct OpBuf {
    buf: Vec<Op>,
    enabled: bool,
}

impl Default for OpBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl OpBuf {
    /// Flush threshold checked at object/element boundaries. 1024 ops is
    /// 16 KiB — large enough to amortize the virtual `ops` call, small
    /// enough that the buffer stays cache-resident beside the heap and
    /// stream data the executor is actively touching.
    pub const FLUSH_AT: usize = 1024;

    /// An empty buffer with the standard capacity, always recording.
    pub fn new() -> Self {
        OpBuf {
            buf: Vec::with_capacity(Self::FLUSH_AT + 64),
            enabled: true,
        }
    }

    /// A buffer tuned for `sink`: records unless the sink declares (via
    /// [`TraceSink::discards_ops`]) that it drops every op anyway.
    pub fn for_sink(sink: &dyn TraceSink) -> Self {
        if sink.discards_ops() {
            OpBuf {
                buf: Vec::new(),
                enabled: false,
            }
        } else {
            Self::new()
        }
    }

    /// Appends one op.
    #[inline]
    pub fn push(&mut self, op: Op) {
        if self.enabled {
            self.buf.push(op);
        }
    }

    /// Independent load of `bytes` at `addr`.
    #[inline]
    pub fn load(&mut self, addr: u64, bytes: u32) {
        if self.enabled {
            self.buf.push(Op::Load {
                addr,
                bytes,
                dependent: false,
            });
        }
    }

    /// Dependent (pointer-chased) word load.
    #[inline]
    pub fn load_word_dep(&mut self, addr: u64) {
        if self.enabled {
            self.buf.push(Op::Load {
                addr,
                bytes: 8,
                dependent: true,
            });
        }
    }

    /// Store of `bytes` at `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, bytes: u32) {
        if self.enabled {
            self.buf.push(Op::Store { addr, bytes });
        }
    }

    /// Delivers the buffered sequence to `sink` and clears the buffer.
    pub fn flush(&mut self, sink: &mut dyn TraceSink) {
        if !self.buf.is_empty() {
            sink.ops(&self.buf);
            self.buf.clear();
        }
    }

    /// Flushes only when the buffer has reached [`OpBuf::FLUSH_AT`] —
    /// cheap enough to call once per object or array element.
    #[inline]
    pub fn maybe_flush(&mut self, sink: &mut dyn TraceSink) {
        if self.buf.len() >= Self::FLUSH_AT {
            self.flush(sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_tallies() {
        let mut c = CountingSink::new();
        for op in [
            Op::Load {
                addr: 0x100,
                bytes: 8,
                dependent: false,
            },
            Op::Load {
                addr: 0x200,
                bytes: 8,
                dependent: true,
            },
            Op::Store {
                addr: 0x300,
                bytes: 16,
            },
            Op::Alu(3),
            Op::Branch,
            Op::Call,
            Op::ReflectCall,
            Op::StrCompare(12),
            Op::HashLookup,
            Op::Alloc(48),
        ] {
            c.op(op);
        }
        assert_eq!(c.loads, 2);
        assert_eq!(c.dependent_loads, 1);
        assert_eq!(c.load_bytes, 16);
        assert_eq!(c.stores, 1);
        assert_eq!(c.store_bytes, 16);
        assert_eq!(c.alu, 4); // 3 explicit + 1 for the StrCompare
        assert_eq!(c.branches, 1);
        assert_eq!(c.calls, 1);
        assert_eq!(c.reflect_calls, 1);
        assert_eq!(c.str_compare_bytes, 12);
        assert_eq!(c.hash_lookups, 1);
        assert_eq!(c.allocs, 1);
        assert_eq!(c.alloc_bytes, 48);
        assert!(c.total_ops() > 0);
    }

    #[test]
    fn opbuf_preserves_the_op_sequence() {
        let mut direct = CountingSink::new();
        let mut via_buf = CountingSink::new();
        let ops = [
            Op::Load {
                addr: 0x100,
                bytes: 8,
                dependent: true,
            },
            Op::Store {
                addr: 0x200,
                bytes: 4,
            },
            Op::Alu(3),
            Op::ReflectCall,
            Op::StrCompare(7),
        ];
        for &op in &ops {
            direct.op(op);
        }
        let mut buf = OpBuf::new();
        buf.load_word_dep(0x100);
        buf.store(0x200, 4);
        buf.push(Op::Alu(3));
        buf.push(Op::ReflectCall);
        buf.push(Op::StrCompare(7));
        buf.flush(&mut via_buf);
        assert_eq!(direct, via_buf);
        // A flushed buffer is empty; flushing again delivers nothing.
        buf.flush(&mut via_buf);
        assert_eq!(direct, via_buf);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        for _ in 0..1000 {
            s.op(Op::Branch);
        }
    }

    #[test]
    fn stream_regions_are_disjoint() {
        const _: () = assert!(OUT_STREAM_BASE > sdheap::Heap::DEFAULT_BASE);
        const _: () = assert!(IN_STREAM_BASE > OUT_STREAM_BASE);
    }
}
