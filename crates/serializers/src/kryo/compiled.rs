//! Compiled-plan executor for [`Kryo`](super::Kryo).
//!
//! Field programs from [`crate::plan`] replace the per-object `fields()`
//! walk: primitive runs decode/encode against heap word slices, the class
//! id goes out as pre-encoded varint bytes ([`Plan::id_varint`]), and all
//! narration is batched through an [`OpBuf`]. Streams and op sequences
//! are pinned by the frozen fixtures in `tests/golden_serde.rs`.

use super::{TAG_NEW, TAG_NULL, TAG_REF};
use crate::api::SerError;
use crate::plan::{plans_for, PlanCache, Step};
use crate::trace::{Op, OpBuf, TraceSink, IN_STREAM_BASE, OUT_STREAM_BASE};
use sdformat::varint::{read_varint, write_varint};
use sdheap::{Addr, FieldKind, Heap, KlassId, KlassRegistry, ValueType, HEADER_WORDS};
use std::collections::HashMap;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

struct CSer<'a> {
    heap: &'a Heap,
    reg: &'a KlassRegistry,
    plans: Rc<PlanCache>,
    out: Vec<u8>,
    handles: HashMap<Addr, u64>,
    next_handle: u64,
    ops: OpBuf,
}

enum SerFrame {
    Write(Addr),
    Fields { addr: Addr, step: usize, id: KlassId },
    Elems { addr: Addr, idx: usize },
}

impl<'a> CSer<'a> {
    #[inline]
    fn out_pos(&self) -> u64 {
        OUT_STREAM_BASE + self.out.len() as u64
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.ops.store(self.out_pos(), bytes.len() as u32);
        self.out.extend_from_slice(bytes);
    }

    #[inline]
    fn put_varint(&mut self, v: u64) {
        let pos = self.out_pos();
        let n = write_varint(&mut self.out, v);
        self.ops.store(pos, n as u32);
        self.ops.push(Op::Alu(n as u32));
    }

    #[inline]
    fn put_primitive(&mut self, vt: ValueType, word: u64) {
        match vt {
            ValueType::Long | ValueType::Double => self.put(&word.to_le_bytes()),
            ValueType::Int => self.put_varint(word & 0xffff_ffff),
            ValueType::Char => self.put(&(word as u16).to_le_bytes()),
            ValueType::Byte | ValueType::Boolean => self.put(&[word as u8]),
        }
    }

    fn run(&mut self, root: Addr, sink: &mut dyn TraceSink) {
        let plans = Rc::clone(&self.plans);
        let mut stack = vec![SerFrame::Write(root)];
        while let Some(frame) = stack.pop() {
            self.ops.maybe_flush(sink);
            match frame {
                SerFrame::Write(addr) => {
                    self.ops.push(Op::Call);
                    self.ops.push(Op::Branch);
                    if addr.is_null() {
                        self.put(&[TAG_NULL]);
                        continue;
                    }
                    self.ops.push(Op::HashLookup);
                    if let Some(&h) = self.handles.get(&addr) {
                        self.put(&[TAG_REF]);
                        self.put_varint(h);
                        continue;
                    }
                    self.put(&[TAG_NEW]);
                    self.handles.insert(addr, self.next_handle);
                    self.next_handle += 1;
                    self.ops.load_word_dep(addr.add_words(1).get());
                    self.ops.push(Op::HashLookup);
                    let id = self.heap.klass_of(self.reg, addr);
                    let plan = plans.plan(id);
                    // Pre-encoded class-id varint: same Store+Alu narration.
                    self.ops.store(self.out_pos(), plan.id_varint.len() as u32);
                    self.ops.push(Op::Alu(plan.id_varint.len() as u32));
                    self.out.extend_from_slice(&plan.id_varint);
                    match plan.array_elem {
                        Some(elem) => {
                            self.ops
                                .load_word_dep(addr.add_words(HEADER_WORDS as u64).get());
                            let len = self.heap.array_len(addr);
                            self.put_varint(len as u64);
                            match elem {
                                FieldKind::Value(vt) => {
                                    let base =
                                        addr.add_words((HEADER_WORDS + 1) as u64).get();
                                    for (i, &word) in self
                                        .heap
                                        .array_words_slice(addr, 0, len)
                                        .iter()
                                        .enumerate()
                                    {
                                        self.ops.load(base + 8 * i as u64, 8);
                                        self.put_primitive(vt, word);
                                        self.ops.maybe_flush(sink);
                                    }
                                }
                                FieldKind::Ref => {
                                    stack.push(SerFrame::Elems { addr, idx: 0 })
                                }
                            }
                        }
                        None => stack.push(SerFrame::Fields { addr, step: 0, id }),
                    }
                }
                SerFrame::Fields { addr, step, id } => {
                    let plan = plans.plan(id);
                    let mut s = step;
                    'steps: while s < plan.steps.len() {
                        match plan.steps[s] {
                            Step::Run {
                                prim_start,
                                prim_len,
                                ..
                            } => {
                                let prims = &plan.prims
                                    [prim_start as usize..(prim_start + prim_len) as usize];
                                let first = prims[0].idx as usize;
                                let base =
                                    addr.add_words((HEADER_WORDS + first) as u64).get();
                                let words =
                                    self.heap.field_words(addr, first, prim_len as usize);
                                for (j, f) in prims.iter().enumerate() {
                                    self.ops.push(Op::Call);
                                    self.ops.load_word_dep(base + 8 * j as u64);
                                    let word = words[j];
                                    match f.vt {
                                        ValueType::Long | ValueType::Double => {
                                            self.ops.store(
                                                OUT_STREAM_BASE + self.out.len() as u64,
                                                8,
                                            );
                                            self.out
                                                .extend_from_slice(&word.to_le_bytes());
                                        }
                                        ValueType::Int => {
                                            let pos =
                                                OUT_STREAM_BASE + self.out.len() as u64;
                                            let n = write_varint(
                                                &mut self.out,
                                                word & 0xffff_ffff,
                                            );
                                            self.ops.store(pos, n as u32);
                                            self.ops.push(Op::Alu(n as u32));
                                        }
                                        ValueType::Char => {
                                            self.ops.store(
                                                OUT_STREAM_BASE + self.out.len() as u64,
                                                2,
                                            );
                                            self.out.extend_from_slice(
                                                &(word as u16).to_le_bytes(),
                                            );
                                        }
                                        ValueType::Byte | ValueType::Boolean => {
                                            self.ops.store(
                                                OUT_STREAM_BASE + self.out.len() as u64,
                                                1,
                                            );
                                            self.out.push(word as u8);
                                        }
                                    }
                                }
                                s += 1;
                            }
                            Step::Ref { idx, .. } => {
                                self.ops.push(Op::Call);
                                self.ops.load_word_dep(
                                    addr.add_words((HEADER_WORDS + idx as usize) as u64)
                                        .get(),
                                );
                                let word = self.heap.field(addr, idx as usize);
                                stack.push(SerFrame::Fields {
                                    addr,
                                    step: s + 1,
                                    id,
                                });
                                stack.push(SerFrame::Write(Addr(word)));
                                break 'steps;
                            }
                        }
                    }
                }
                SerFrame::Elems { addr, idx } => {
                    let len = self.heap.array_len(addr);
                    if idx < len {
                        self.ops
                            .load(addr.add_words((HEADER_WORDS + 1 + idx) as u64).get(), 8);
                        let word = self.heap.array_elem(addr, idx);
                        stack.push(SerFrame::Elems { addr, idx: idx + 1 });
                        stack.push(SerFrame::Write(Addr(word)));
                    }
                }
            }
        }
    }
}

pub(super) fn serialize_into(
    heap: &mut Heap,
    reg: &KlassRegistry,
    root: Addr,
    sink: &mut dyn TraceSink,
    out: &mut Vec<u8>,
) -> Result<usize, SerError> {
    out.clear();
    let mut ctx = CSer {
        heap,
        reg,
        plans: plans_for(reg),
        out: std::mem::take(out),
        handles: HashMap::new(),
        next_handle: 0,
        ops: OpBuf::for_sink(&*sink),
    };
    ctx.run(root, sink);
    ctx.ops.flush(sink);
    *out = ctx.out;
    Ok(out.len())
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

/// Decodes one primitive (bounds check before the `Load`, varint
/// `Load`+`Alu`).
#[inline]
fn de_prim(
    bytes: &[u8],
    pos: &mut usize,
    ops: &mut OpBuf,
    vt: ValueType,
) -> Result<u64, SerError> {
    #[inline]
    fn fixed<const N: usize>(
        bytes: &[u8],
        pos: &mut usize,
        ops: &mut OpBuf,
    ) -> Result<[u8; N], SerError> {
        if *pos + N > bytes.len() {
            return Err(SerError::Malformed("truncated stream"));
        }
        ops.load(IN_STREAM_BASE + *pos as u64, N as u32);
        let s: [u8; N] = bytes[*pos..*pos + N].try_into().expect("N");
        *pos += N;
        Ok(s)
    }
    Ok(match vt {
        ValueType::Long | ValueType::Double => {
            u64::from_le_bytes(fixed::<8>(bytes, pos, ops)?)
        }
        ValueType::Int => {
            let (v, next) =
                read_varint(bytes, *pos).ok_or(SerError::Malformed("bad varint"))?;
            let n = (next - *pos) as u32;
            ops.load(IN_STREAM_BASE + *pos as u64, n);
            ops.push(Op::Alu(n));
            *pos = next;
            v
        }
        ValueType::Char => u64::from(u16::from_le_bytes(fixed::<2>(bytes, pos, ops)?)),
        ValueType::Byte | ValueType::Boolean => u64::from(fixed::<1>(bytes, pos, ops)?[0]),
    })
}

struct CDe<'a> {
    bytes: &'a [u8],
    pos: usize,
    reg: &'a KlassRegistry,
    plans: Rc<PlanCache>,
    heap: &'a mut Heap,
    handles: Vec<Addr>,
    ops: OpBuf,
}

#[derive(Clone, Copy)]
enum Dest {
    Root,
    Field(Addr, usize),
    Elem(Addr, usize),
}

enum DeFrame {
    Read(Dest),
    Fields { addr: Addr, step: usize, id: KlassId },
    Elems { addr: Addr, idx: usize },
}

impl<'a> CDe<'a> {
    #[inline]
    fn in_pos(&self) -> u64 {
        IN_STREAM_BASE + self.pos as u64
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SerError> {
        if self.pos + n > self.bytes.len() {
            return Err(SerError::Malformed("truncated stream"));
        }
        self.ops.load(self.in_pos(), n as u32);
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_varint(&mut self) -> Result<u64, SerError> {
        let (v, next) =
            read_varint(self.bytes, self.pos).ok_or(SerError::Malformed("bad varint"))?;
        let n = (next - self.pos) as u32;
        self.ops.load(self.in_pos(), n);
        self.ops.push(Op::Alu(n));
        self.pos = next;
        Ok(v)
    }

    fn store_dest(&mut self, dest: Dest, value: Addr) {
        match dest {
            Dest::Root => {}
            Dest::Field(addr, i) => {
                self.ops.push(Op::Call);
                self.ops
                    .store(addr.add_words((HEADER_WORDS + i) as u64).get(), 8);
                self.heap.set_ref(addr, i, value);
            }
            Dest::Elem(addr, i) => {
                self.ops
                    .store(addr.add_words((HEADER_WORDS + 1 + i) as u64).get(), 8);
                self.heap.set_array_elem(addr, i, value.get());
            }
        }
    }

    fn run(&mut self, sink: &mut dyn TraceSink) -> Result<Addr, SerError> {
        let plans = Rc::clone(&self.plans);
        let mut root = Addr::NULL;
        let mut got_root = false;
        let mut stack = vec![DeFrame::Read(Dest::Root)];
        while let Some(frame) = stack.pop() {
            self.ops.maybe_flush(sink);
            match frame {
                DeFrame::Read(dest) => {
                    self.ops.push(Op::Call);
                    self.ops.push(Op::Branch);
                    let addr = match self.take(1)?[0] {
                        TAG_NULL => Addr::NULL,
                        TAG_REF => {
                            let h = self.get_varint()? as usize;
                            self.ops.push(Op::HashLookup);
                            *self
                                .handles
                                .get(h)
                                .ok_or(SerError::Malformed("bad handle"))?
                        }
                        TAG_NEW => {
                            let raw_id = self.get_varint()? as u32;
                            self.ops.push(Op::Alu(1));
                            if raw_id as usize >= self.reg.len() {
                                return Err(SerError::UnknownClassId(raw_id));
                            }
                            let id = sdheap::KlassId(raw_id);
                            let plan = plans.plan(id);
                            let addr = match plan.array_elem {
                                Some(elem) => {
                                    let len = self.get_varint()?;
                                    if len >= self.heap.capacity_bytes() / 8 {
                                        return Err(SerError::Malformed(
                                            "array length exceeds heap",
                                        ));
                                    }
                                    let len = len as usize;
                                    let k = self.reg.get(id);
                                    self.ops
                                        .push(Op::Alloc(k.array_words(len) as u32 * 8));
                                    let addr = self.heap.alloc_array(self.reg, id, len)?;
                                    self.ops.store(addr.get(), 32);
                                    match elem {
                                        FieldKind::Value(vt) => {
                                            let base = addr
                                                .add_words((HEADER_WORDS + 1) as u64)
                                                .get();
                                            let mut pos = self.pos;
                                            let CDe {
                                                ref mut ops,
                                                ref mut heap,
                                                bytes,
                                                ..
                                            } = *self;
                                            let words =
                                                heap.array_words_slice_mut(addr, 0, len);
                                            for (i, slot) in words.iter_mut().enumerate() {
                                                let v = de_prim(bytes, &mut pos, ops, vt)?;
                                                ops.store(base + 8 * i as u64, 8);
                                                *slot = v;
                                                ops.maybe_flush(sink);
                                            }
                                            self.pos = pos;
                                        }
                                        FieldKind::Ref => {
                                            stack.push(DeFrame::Elems { addr, idx: 0 })
                                        }
                                    }
                                    addr
                                }
                                None => {
                                    self.ops.push(Op::Alloc(plan.instance_bytes));
                                    let addr = self.heap.alloc(self.reg, id)?;
                                    self.ops.store(addr.get(), 24);
                                    stack.push(DeFrame::Fields { addr, step: 0, id });
                                    addr
                                }
                            };
                            self.handles.push(addr);
                            addr
                        }
                        _ => return Err(SerError::Malformed("unknown tag")),
                    };
                    self.store_dest(dest, addr);
                    if !got_root {
                        root = addr;
                        got_root = true;
                    }
                }
                DeFrame::Fields { addr, step, id } => {
                    let plan = plans.plan(id);
                    let mut s = step;
                    'steps: while s < plan.steps.len() {
                        match plan.steps[s] {
                            Step::Run {
                                prim_start,
                                prim_len,
                                ..
                            } => {
                                let prims = &plan.prims
                                    [prim_start as usize..(prim_start + prim_len) as usize];
                                let first = prims[0].idx as usize;
                                let base =
                                    addr.add_words((HEADER_WORDS + first) as u64).get();
                                let mut pos = self.pos;
                                let CDe {
                                    ref mut ops,
                                    ref mut heap,
                                    bytes,
                                    ..
                                } = *self;
                                let words =
                                    heap.field_words_mut(addr, first, prim_len as usize);
                                for (j, f) in prims.iter().enumerate() {
                                    let v = match de_prim(bytes, &mut pos, ops, f.vt) {
                                        Ok(v) => v,
                                        Err(e) => {
                                            self.pos = pos;
                                            return Err(e);
                                        }
                                    };
                                    ops.push(Op::Call);
                                    ops.store(base + 8 * j as u64, 8);
                                    words[j] = v;
                                }
                                self.pos = pos;
                                s += 1;
                            }
                            Step::Ref { idx, .. } => {
                                stack.push(DeFrame::Fields {
                                    addr,
                                    step: s + 1,
                                    id,
                                });
                                stack
                                    .push(DeFrame::Read(Dest::Field(addr, idx as usize)));
                                break 'steps;
                            }
                        }
                    }
                }
                DeFrame::Elems { addr, idx } => {
                    let len = self.heap.array_len(addr);
                    if idx < len {
                        stack.push(DeFrame::Elems { addr, idx: idx + 1 });
                        stack.push(DeFrame::Read(Dest::Elem(addr, idx)));
                    }
                }
            }
        }
        Ok(root)
    }
}

pub(super) fn deserialize(
    bytes: &[u8],
    reg: &KlassRegistry,
    dst: &mut Heap,
    sink: &mut dyn TraceSink,
) -> Result<Addr, SerError> {
    let mut ctx = CDe {
        bytes,
        pos: 0,
        reg,
        plans: plans_for(reg),
        heap: dst,
        handles: Vec::new(),
        ops: OpBuf::for_sink(&*sink),
    };
    let result = ctx.run(sink);
    // Buffered ops reach the sink on both Ok and Err paths.
    ctx.ops.flush(sink);
    result
}
