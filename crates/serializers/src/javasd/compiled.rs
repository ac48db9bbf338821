//! Compiled-plan executor for [`JavaSd`](super::JavaSd).
//!
//! Executes the flat field programs from [`crate::plan`] instead of
//! re-walking `fields()` per object: a primitive run becomes one slice
//! read from the heap plus direct big-endian byte writes, the reflective
//! narration (`ReflectCall`/`StrCompare`/`Load`/`Store` per field) is
//! pushed into an [`OpBuf`] instead of costing four virtual sink calls,
//! and all name lengths/widths come pre-resolved from the plan. The byte
//! stream and the narrated op sequence are pinned by the frozen fixtures
//! in `tests/golden_serde.rs`.

use super::{prim_width, STREAM_MAGIC, STREAM_VERSION};
use super::{TC_ARRAY, TC_CLASSDESC, TC_CLASSREF, TC_NULL, TC_OBJECT, TC_REFERENCE};
use crate::api::SerError;
use crate::plan::{plans_for, Plan, PlanCache, Step};
use crate::trace::{Op, OpBuf, TraceSink, IN_STREAM_BASE, OUT_STREAM_BASE};
use sdheap::{Addr, FieldKind, Heap, KlassId, KlassRegistry, HEADER_WORDS};
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
    handles: HashMap<Addr, u32>,
    /// Class handles, dense by klass id (the narrated `HashLookup` op is
    /// unchanged; only the host-side container is cheaper).
    class_handles: Vec<Option<u32>>,
    next_handle: u32,
    ops: OpBuf,
}

enum SerFrame {
    Write(Addr),
    /// Resume an instance's field *program* from step `step`.
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
    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put(&v.to_be_bytes());
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_be_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }

    /// Class descriptor — cold path (once per klass per stream).
    fn write_class_desc(&mut self, id: KlassId) {
        self.ops.push(Op::HashLookup);
        if let Some(h) = self.class_handles[id.get() as usize] {
            self.put_u8(TC_CLASSREF);
            self.put_u32(h);
            return;
        }
        let k = self.reg.get(id);
        self.put_u8(TC_CLASSDESC);
        let name = k.name().as_bytes();
        self.ops.push(Op::Alu(name.len() as u32));
        self.put_u16(name.len() as u16);
        self.put(name);
        let suid = name
            .iter()
            .fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b.into()));
        self.put_u64(suid);
        self.put_u8(0x02);
        if k.is_array() {
            self.put_u16(0);
        } else {
            self.put_u16(k.num_fields() as u16);
            for f in k.fields() {
                let sig = match f.kind {
                    FieldKind::Value(vt) => vt.signature(),
                    FieldKind::Ref => 'L',
                };
                self.put_u8(sig as u8);
                let fb = f.name.as_bytes();
                self.ops.push(Op::Alu(fb.len() as u32));
                self.put_u16(fb.len() as u16);
                self.put(fb);
            }
        }
        let h = self.next_handle;
        self.next_handle += 1;
        self.class_handles[id.get() as usize] = Some(h);
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
                        self.put_u8(TC_NULL);
                        continue;
                    }
                    self.ops.load_word_dep(addr.get());
                    self.ops.push(Op::HashLookup);
                    if let Some(&h) = self.handles.get(&addr) {
                        self.put_u8(TC_REFERENCE);
                        self.put_u32(h);
                        continue;
                    }
                    self.ops.load_word_dep(addr.add_words(1).get());
                    let id = self.heap.klass_of(self.reg, addr);
                    self.ops.load_word_dep(self.reg.meta_addr(id).get());
                    let plan = plans.plan(id);
                    match plan.array_elem {
                        Some(elem) => {
                            self.put_u8(TC_ARRAY);
                            self.write_class_desc(id);
                            self.ops
                                .load_word_dep(addr.add_words(HEADER_WORDS as u64).get());
                            let len = self.heap.array_len(addr);
                            self.put_u32(len as u32);
                            let h = self.next_handle;
                            self.next_handle += 1;
                            self.handles.insert(addr, h);
                            match elem {
                                FieldKind::Value(vt) => {
                                    let w = prim_width(vt) as usize;
                                    let base =
                                        addr.add_words((HEADER_WORDS + 1) as u64).get();
                                    for (i, &word) in self
                                        .heap
                                        .array_words_slice(addr, 0, len)
                                        .iter()
                                        .enumerate()
                                    {
                                        self.ops.load(base + 8 * i as u64, 8);
                                        let be = word.to_be_bytes();
                                        self.ops
                                            .store(self.out_pos(), w as u32);
                                        self.out.extend_from_slice(&be[8 - w..]);
                                        self.ops.maybe_flush(sink);
                                    }
                                }
                                FieldKind::Ref => {
                                    stack.push(SerFrame::Elems { addr, idx: 0 });
                                }
                            }
                        }
                        None => {
                            self.put_u8(TC_OBJECT);
                            self.write_class_desc(id);
                            let h = self.next_handle;
                            self.next_handle += 1;
                            self.handles.insert(addr, h);
                            stack.push(SerFrame::Fields { addr, step: 0, id });
                        }
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
                                    self.ops.push(Op::ReflectCall);
                                    self.ops.push(Op::StrCompare(f.name_len));
                                    self.ops.load_word_dep(base + 8 * j as u64);
                                    let w = f.java_width as usize;
                                    let be = words[j].to_be_bytes();
                                    self.ops.store(
                                        OUT_STREAM_BASE + self.out.len() as u64,
                                        w as u32,
                                    );
                                    self.out.extend_from_slice(&be[8 - w..]);
                                }
                                s += 1;
                            }
                            Step::Ref { idx, name_len } => {
                                self.ops.push(Op::ReflectCall);
                                self.ops.push(Op::StrCompare(name_len));
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
        class_handles: vec![None; reg.len()],
        next_handle: 0,
        ops: OpBuf::for_sink(&*sink),
    };
    ctx.put_u16(STREAM_MAGIC);
    ctx.put_u16(STREAM_VERSION);
    ctx.run(root, sink);
    ctx.ops.flush(sink);
    *out = ctx.out;
    Ok(out.len())
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

struct CDe<'a> {
    bytes: &'a [u8],
    pos: usize,
    reg: &'a KlassRegistry,
    plans: Rc<PlanCache>,
    heap: &'a mut Heap,
    handles: Vec<Addr>,
    class_handles: Vec<Option<KlassId>>,
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

    fn get_u8(&mut self) -> Result<u8, SerError> {
        Ok(self.take(1)?[0])
    }

    fn get_u16(&mut self) -> Result<u16, SerError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn get_u32(&mut self) -> Result<u32, SerError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn get_u64(&mut self) -> Result<u64, SerError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Class descriptor reader — cold path.
    fn read_class_desc(&mut self) -> Result<KlassId, SerError> {
        match self.get_u8()? {
            TC_CLASSREF => {
                let h = self.get_u32()? as usize;
                self.ops.push(Op::HashLookup);
                self.class_handles
                    .get(h)
                    .copied()
                    .flatten()
                    .ok_or(SerError::Malformed("bad class handle"))
            }
            TC_CLASSDESC => {
                let len = self.get_u16()? as usize;
                let name_bytes = self.take(len)?.to_vec();
                let name = String::from_utf8(name_bytes)
                    .map_err(|_| SerError::Malformed("class name not UTF-8"))?;
                let _suid = self.get_u64()?;
                let _flags = self.get_u8()?;
                self.ops.push(Op::HashLookup);
                self.ops.push(Op::StrCompare(len as u32));
                let id = self
                    .reg
                    .lookup(&name)
                    .ok_or_else(|| SerError::UnknownClass(name.clone()))?;
                let nfields = self.get_u16()? as usize;
                for _ in 0..nfields {
                    let _sig = self.get_u8()?;
                    let flen = self.get_u16()? as usize;
                    let _fname = self.take(flen)?;
                    self.ops.push(Op::StrCompare(flen as u32));
                }
                self.handles.push(Addr::NULL);
                self.class_handles.push(Some(id));
                Ok(id)
            }
            _ => Err(SerError::Malformed("expected class descriptor")),
        }
    }

    fn read_primitive_width(&mut self, w: usize) -> Result<u64, SerError> {
        let s = self.take(w)?;
        let mut be = [0u8; 8];
        be[8 - w..].copy_from_slice(s);
        Ok(u64::from_be_bytes(be))
    }

    fn store_dest(&mut self, dest: Dest, value: Addr) {
        match dest {
            Dest::Root => {}
            Dest::Field(addr, i) => {
                self.ops.push(Op::ReflectCall);
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

    /// Executes one instance's field program from `step`, pushing resume
    /// frames for references. The primitive fast path decodes a whole run
    /// against a bounds check done once; when the stream is too short it
    /// falls back to per-field reads so the narrated ops (and the error)
    /// are exactly those of a field-at-a-time reader.
    fn run_fields(
        &mut self,
        plan: &Plan,
        addr: Addr,
        step: usize,
        id: KlassId,
        stack: &mut Vec<DeFrame>,
    ) -> Result<(), SerError> {
        let mut s = step;
        while s < plan.steps.len() {
            match plan.steps[s] {
                Step::Run {
                    prim_start,
                    prim_len,
                    java_bytes,
                    ..
                } => {
                    let prims =
                        &plan.prims[prim_start as usize..(prim_start + prim_len) as usize];
                    let first = prims[0].idx as usize;
                    if self.pos + java_bytes as usize <= self.bytes.len() {
                        let base = addr.add_words((HEADER_WORDS + first) as u64).get();
                        let mut pos = self.pos;
                        self.pos += java_bytes as usize;
                        let CDe {
                            ref mut ops,
                            ref mut heap,
                            bytes,
                            ..
                        } = *self;
                        let words = heap.field_words_mut(addr, first, prim_len as usize);
                        for (j, f) in prims.iter().enumerate() {
                            let w = f.java_width as usize;
                            ops.load(IN_STREAM_BASE + pos as u64, w as u32);
                            let mut be = [0u8; 8];
                            be[8 - w..].copy_from_slice(&bytes[pos..pos + w]);
                            pos += w;
                            ops.push(Op::ReflectCall);
                            ops.push(Op::StrCompare(f.name_len));
                            ops.store(base + 8 * j as u64, 8);
                            words[j] = u64::from_be_bytes(be);
                        }
                    } else {
                        // Slow path: per-field reads, erroring at the
                        // first field the stream cannot hold.
                        for f in prims {
                            let w = self.read_primitive_width(f.java_width as usize)?;
                            self.ops.push(Op::ReflectCall);
                            self.ops.push(Op::StrCompare(f.name_len));
                            let i = f.idx as usize;
                            self.ops
                                .store(addr.add_words((HEADER_WORDS + i) as u64).get(), 8);
                            self.heap.set_field(addr, i, w);
                        }
                    }
                    s += 1;
                }
                Step::Ref { idx, .. } => {
                    stack.push(DeFrame::Fields {
                        addr,
                        step: s + 1,
                        id,
                    });
                    stack.push(DeFrame::Read(Dest::Field(addr, idx as usize)));
                    return Ok(());
                }
            }
        }
        Ok(())
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
                    let addr = match self.get_u8()? {
                        TC_NULL => Addr::NULL,
                        TC_REFERENCE => {
                            let h = self.get_u32()? as usize;
                            self.ops.push(Op::HashLookup);
                            *self
                                .handles
                                .get(h)
                                .ok_or(SerError::Malformed("bad object handle"))?
                        }
                        TC_OBJECT => {
                            let id = self.read_class_desc()?;
                            let plan = plans.plan(id);
                            self.ops.push(Op::Alloc(plan.instance_bytes));
                            let addr = self.heap.alloc(self.reg, id)?;
                            self.ops.store(addr.get(), 24);
                            self.handles.push(addr);
                            self.class_handles.push(None);
                            stack.push(DeFrame::Fields { addr, step: 0, id });
                            self.store_dest(dest, addr);
                            if !got_root {
                                root = addr;
                                got_root = true;
                            }
                            continue;
                        }
                        TC_ARRAY => {
                            let id = self.read_class_desc()?;
                            let len = self.get_u32()? as usize;
                            if (len as u64) >= self.heap.capacity_bytes() / 8 {
                                return Err(SerError::Malformed("array length exceeds heap"));
                            }
                            let k = self.reg.get(id);
                            self.ops.push(Op::Alloc(k.array_words(len) as u32 * 8));
                            let addr = self.heap.alloc_array(self.reg, id, len)?;
                            self.ops.store(addr.get(), 32);
                            self.handles.push(addr);
                            self.class_handles.push(None);
                            match plans.plan(id).array_elem.expect("array klass") {
                                FieldKind::Value(vt) => {
                                    let w = prim_width(vt) as usize;
                                    let need = len * w;
                                    let base =
                                        addr.add_words((HEADER_WORDS + 1) as u64).get();
                                    if self.pos + need <= self.bytes.len() {
                                        let mut pos = self.pos;
                                        self.pos += need;
                                        let CDe {
                                            ref mut ops,
                                            ref mut heap,
                                            bytes,
                                            ..
                                        } = *self;
                                        let words =
                                            heap.array_words_slice_mut(addr, 0, len);
                                        for (i, slot) in words.iter_mut().enumerate() {
                                            ops.load(IN_STREAM_BASE + pos as u64, w as u32);
                                            let mut be = [0u8; 8];
                                            be[8 - w..]
                                                .copy_from_slice(&bytes[pos..pos + w]);
                                            pos += w;
                                            ops.store(base + 8 * i as u64, 8);
                                            *slot = u64::from_be_bytes(be);
                                            ops.maybe_flush(sink);
                                        }
                                    } else {
                                        for i in 0..len {
                                            let v = self.read_primitive_width(w)?;
                                            self.ops.store(base + 8 * i as u64, 8);
                                            self.heap.set_array_elem(addr, i, v);
                                        }
                                    }
                                }
                                FieldKind::Ref => {
                                    stack.push(DeFrame::Elems { addr, idx: 0 });
                                }
                            }
                            self.store_dest(dest, addr);
                            if !got_root {
                                root = addr;
                                got_root = true;
                            }
                            continue;
                        }
                        _ => return Err(SerError::Malformed("unknown type tag")),
                    };
                    self.store_dest(dest, addr);
                    if !got_root {
                        root = addr;
                        got_root = true;
                    }
                }
                DeFrame::Fields { addr, step, id } => {
                    let plan = plans.plan(id);
                    self.run_fields(plan, addr, step, id, &mut stack)?;
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
        class_handles: Vec::new(),
        ops: OpBuf::for_sink(&*sink),
    };
    let result = (|| {
        if ctx.get_u16()? != STREAM_MAGIC {
            return Err(SerError::Malformed("bad stream magic"));
        }
        if ctx.get_u16()? != STREAM_VERSION {
            return Err(SerError::Malformed("bad stream version"));
        }
        Ok(())
    })()
    .and_then(|()| ctx.run(sink));
    // Ops buffered past the last flush point must reach the sink on both
    // the Ok and the Err path, or error traces would lose their tail.
    ctx.ops.flush(sink);
    result
}
