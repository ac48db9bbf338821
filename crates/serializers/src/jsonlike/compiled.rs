//! Compiled-plan executor for [`JsonLike`](super::JsonLike).
//!
//! The text serializer's hot costs are formatting and narration: every
//! `emit` is a `format!` allocation plus two virtual sink calls, and the
//! parser narrates three ops per input byte through a virtual call each.
//! The compiled executor uses the plan's pre-rendered header and field
//! prefixes (`{"@c":"Name","@id":` / `,"fN":`), a reusable number-format
//! buffer instead of per-value `String`s, slice-based tokens instead of
//! `String` copies while parsing, and an [`OpBuf`] for all narration.
//! Narration is one `Store`+`Alu` pair per emitted chunk and three ops
//! per parsed byte. Streams and op sequences are pinned by the frozen
//! fixtures in `tests/golden_serde.rs`.

use super::{parse_value, MAX_DEPTH};
use crate::api::SerError;
use crate::plan::{decimal, plans_for, PlanCache, Step};
use crate::trace::{Op, OpBuf, TraceSink, IN_STREAM_BASE, OUT_STREAM_BASE};
use sdheap::{Addr, FieldKind, Heap, KlassId, KlassRegistry, ValueType, HEADER_WORDS};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

struct CSer<'a> {
    heap: &'a Heap,
    reg: &'a KlassRegistry,
    plans: Rc<PlanCache>,
    out: Vec<u8>,
    ids: HashMap<Addr, usize>,
    /// Reusable `{:?}` format buffer for doubles.
    num: String,
    ops: OpBuf,
}

enum Frame {
    Open(Addr),
    Fields {
        addr: Addr,
        step: usize,
        id: KlassId,
    },
    Elems {
        addr: Addr,
        idx: usize,
        elem: FieldKind,
    },
    Text(&'static str),
}

impl<'a> CSer<'a> {
    /// One emitted chunk: a single `Store`+`Alu` pair of the full chunk
    /// length.
    #[inline]
    fn emit(&mut self, s: &[u8]) {
        self.ops
            .store(OUT_STREAM_BASE + self.out.len() as u64, s.len() as u32);
        self.ops.push(Op::Alu(s.len() as u32));
        self.out.extend_from_slice(s);
    }

    /// Emits a primitive exactly as `fmt_value` would print it.
    #[inline]
    fn emit_value(&mut self, vt: ValueType, word: u64) {
        match vt {
            ValueType::Double => {
                let mut num = std::mem::take(&mut self.num);
                num.clear();
                write!(num, "{:?}", f64::from_bits(word)).expect("fmt");
                self.emit(num.as_bytes());
                self.num = num;
            }
            ValueType::Boolean => {
                self.emit(if word != 0 { b"true" } else { b"false" });
            }
            _ => {
                let mut buf = [0u8; 20];
                let d = decimal(word, &mut buf);
                // Split borrow: `d` points into the local `buf`.
                self.ops
                    .store(OUT_STREAM_BASE + self.out.len() as u64, d.len() as u32);
                self.ops.push(Op::Alu(d.len() as u32));
                self.out.extend_from_slice(d);
            }
        }
    }

    fn write_obj(&mut self, root: Addr, sink: &mut dyn TraceSink) {
        let plans = Rc::clone(&self.plans);
        let mut stack = vec![Frame::Open(root)];
        while let Some(frame) = stack.pop() {
            self.ops.maybe_flush(sink);
            match frame {
                Frame::Text(s) => self.emit(s.as_bytes()),
                Frame::Open(addr) => {
                    self.ops.push(Op::Call);
                    self.ops.push(Op::Branch);
                    if addr.is_null() {
                        self.emit(b"null");
                        continue;
                    }
                    self.ops.push(Op::HashLookup);
                    if let Some(&id) = self.ids.get(&addr) {
                        // `{"@r":N}` is one emitted chunk.
                        let mut db = [0u8; 20];
                        let d = decimal(id as u64, &mut db);
                        let total = 6 + d.len() + 1;
                        self.ops
                            .store(OUT_STREAM_BASE + self.out.len() as u64, total as u32);
                        self.ops.push(Op::Alu(total as u32));
                        self.out.extend_from_slice(b"{\"@r\":");
                        self.out.extend_from_slice(d);
                        self.out.push(b'}');
                        continue;
                    }
                    let id = self.ids.len();
                    self.ids.insert(addr, id);
                    self.ops.load_word_dep(addr.add_words(1).get());
                    let kid = self.heap.klass_of(self.reg, addr);
                    let plan = plans.plan(kid);
                    // `{"@c":"Name","@id":N` is one emitted chunk.
                    let mut db = [0u8; 20];
                    let d = decimal(id as u64, &mut db);
                    let total = plan.json_header.len() + d.len();
                    self.ops
                        .store(OUT_STREAM_BASE + self.out.len() as u64, total as u32);
                    self.ops.push(Op::Alu(total as u32));
                    self.out.extend_from_slice(&plan.json_header);
                    self.out.extend_from_slice(d);
                    match plan.array_elem {
                        Some(elem) => {
                            self.emit(b",\"e\":[");
                            stack.push(Frame::Text("]}"));
                            stack.push(Frame::Elems { addr, idx: 0, elem });
                        }
                        None => {
                            stack.push(Frame::Text("}"));
                            stack.push(Frame::Fields {
                                addr,
                                step: 0,
                                id: kid,
                            });
                        }
                    }
                }
                Frame::Fields { addr, step, id } => {
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
                                let base = addr.add_words((HEADER_WORDS + first) as u64).get();
                                let h: &Heap = self.heap;
                                let words = h.field_words(addr, first, prims.len());
                                for (j, (f, &word)) in prims.iter().zip(words).enumerate() {
                                    self.ops.push(Op::Call);
                                    self.ops.load_word_dep(base + 8 * j as u64);
                                    let prefix = &plan.json_prefixes[f.idx as usize];
                                    self.ops.store(
                                        OUT_STREAM_BASE + self.out.len() as u64,
                                        prefix.len() as u32,
                                    );
                                    self.ops.push(Op::Alu(prefix.len() as u32));
                                    self.out.extend_from_slice(prefix);
                                    self.emit_value(f.vt, word);
                                    self.ops.maybe_flush(sink);
                                }
                                s += 1;
                            }
                            Step::Ref { idx, .. } => {
                                self.ops.push(Op::Call);
                                self.ops.load_word_dep(
                                    addr.add_words((HEADER_WORDS + idx as usize) as u64).get(),
                                );
                                let word = self.heap.field(addr, idx as usize);
                                let prefix = &plan.json_prefixes[idx as usize];
                                self.ops.store(
                                    OUT_STREAM_BASE + self.out.len() as u64,
                                    prefix.len() as u32,
                                );
                                self.ops.push(Op::Alu(prefix.len() as u32));
                                self.out.extend_from_slice(prefix);
                                stack.push(Frame::Fields {
                                    addr,
                                    step: s + 1,
                                    id,
                                });
                                stack.push(Frame::Open(Addr(word)));
                                break 'steps;
                            }
                        }
                    }
                }
                Frame::Elems { addr, idx, elem } => match elem {
                    FieldKind::Value(vt) => {
                        let len = self.heap.array_len(addr);
                        let base = addr.add_words((HEADER_WORDS + 1) as u64).get();
                        for i in idx..len {
                            if i > 0 {
                                self.emit(b",");
                            }
                            self.ops.load(base + 8 * i as u64, 8);
                            let word = self.heap.array_elem(addr, i);
                            self.emit_value(vt, word);
                            self.ops.maybe_flush(sink);
                        }
                    }
                    FieldKind::Ref => {
                        let len = self.heap.array_len(addr);
                        if idx < len {
                            if idx > 0 {
                                self.emit(b",");
                            }
                            self.ops
                                .load(addr.add_words((HEADER_WORDS + 1 + idx) as u64).get(), 8);
                            let word = self.heap.array_elem(addr, idx);
                            stack.push(Frame::Elems {
                                addr,
                                idx: idx + 1,
                                elem,
                            });
                            stack.push(Frame::Open(Addr(word)));
                        }
                    }
                },
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
        ids: HashMap::new(),
        num: String::new(),
        ops: OpBuf::for_sink(&*sink),
    };
    ctx.write_obj(root, sink);
    ctx.ops.flush(sink);
    *out = ctx.out;
    Ok(out.len())
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct CDe<'a> {
    text: &'a [u8],
    pos: usize,
    depth: usize,
    reg: &'a KlassRegistry,
    plans: Rc<PlanCache>,
    heap: &'a mut Heap,
    by_id: HashMap<usize, Addr>,
    ops: OpBuf,
    sink: &'a mut dyn TraceSink,
}

impl<'a> CDe<'a> {
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    /// One parsed byte: `Load(1)`, `Alu(1)`, `Branch`.
    #[inline]
    fn bump(&mut self) -> Result<u8, SerError> {
        let c = self
            .peek()
            .ok_or(SerError::Malformed("unexpected end of text"))?;
        self.ops.load(IN_STREAM_BASE + self.pos as u64, 1);
        self.ops.push(Op::Alu(1));
        self.ops.push(Op::Branch);
        self.pos += 1;
        Ok(c)
    }

    fn expect(&mut self, s: &str) -> Result<(), SerError> {
        for &b in s.as_bytes() {
            if self.bump()? != b {
                return Err(SerError::Malformed("unexpected token"));
            }
        }
        Ok(())
    }

    /// Token up to a stop byte, as a borrowed slice, narrated as one
    /// `Alu(n)` after UTF-8 validation.
    fn take_until(&mut self, stops: &[u8]) -> Result<&'a str, SerError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if stops.contains(&c) {
                let s = std::str::from_utf8(&self.text[start..self.pos])
                    .map_err(|_| SerError::Malformed("not UTF-8"))?;
                self.ops.push(Op::Alu((self.pos - start) as u32));
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(SerError::Malformed("unterminated token"))
    }

    fn parse_string(&mut self) -> Result<&'a str, SerError> {
        self.expect("\"")?;
        let s = self.take_until(b"\"")?;
        self.expect("\"")?;
        self.ops.push(Op::StrCompare(s.len() as u32));
        Ok(s)
    }

    fn parse_ref(&mut self) -> Result<Addr, SerError> {
        self.ops.push(Op::Call);
        self.ops.maybe_flush(&mut *self.sink);
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(SerError::Malformed("nesting too deep"));
        }
        let out = match self.peek() {
            Some(b'n') => {
                self.expect("null")?;
                Ok(Addr::NULL)
            }
            Some(b'{') => self.parse_object(),
            _ => Err(SerError::Malformed("expected object or null")),
        };
        self.depth -= 1;
        out
    }

    fn parse_object(&mut self) -> Result<Addr, SerError> {
        let plans = Rc::clone(&self.plans);
        self.expect("{")?;
        let key = self.parse_string()?;
        if key == "@r" {
            self.expect(":")?;
            let id: usize = self
                .take_until(b"}")?
                .parse()
                .map_err(|_| SerError::Malformed("bad @r id"))?;
            self.expect("}")?;
            self.ops.push(Op::HashLookup);
            return self
                .by_id
                .get(&id)
                .copied()
                .ok_or(SerError::Malformed("dangling @r"));
        }
        if key != "@c" {
            return Err(SerError::Malformed("expected @c"));
        }
        self.expect(":")?;
        let name = self.parse_string()?;
        self.ops.push(Op::HashLookup);
        self.ops.push(Op::StrCompare(name.len() as u32));
        let kid = self
            .reg
            .lookup(name)
            .ok_or_else(|| SerError::UnknownClass(name.to_string()))?;
        self.expect(",\"@id\":")?;
        let id: usize = self
            .take_until(b",}")?
            .parse()
            .map_err(|_| SerError::Malformed("bad @id"))?;

        let plan = plans.plan(kid);
        match plan.array_elem {
            Some(elem) => {
                self.expect(",\"e\":[")?;
                let mut values: Vec<u64> = Vec::new();
                let mut first = true;
                loop {
                    if self.peek() == Some(b']') {
                        self.bump()?;
                        break;
                    }
                    if !first {
                        self.expect(",")?;
                    }
                    first = false;
                    match elem {
                        FieldKind::Value(vt) => {
                            let text = self.take_until(b",]")?;
                            values.push(parse_value(vt, text)?);
                        }
                        FieldKind::Ref => {
                            let a = self.parse_ref()?;
                            values.push(a.get());
                        }
                    }
                    self.ops.maybe_flush(&mut *self.sink);
                }
                self.expect("}")?;
                let k = self.reg.get(kid);
                self.ops
                    .push(Op::Alloc((k.array_words(values.len()) * 8) as u32));
                let addr = self.heap.alloc_array(self.reg, kid, values.len())?;
                let base = addr.add_words((HEADER_WORDS + 1) as u64).get();
                {
                    let CDe {
                        ref mut ops,
                        ref mut heap,
                        ..
                    } = *self;
                    let words = heap.array_words_slice_mut(addr, 0, values.len());
                    for (i, (slot, v)) in words.iter_mut().zip(&values).enumerate() {
                        ops.store(base + 8 * i as u64, 8);
                        *slot = *v;
                    }
                }
                self.by_id.insert(id, addr);
                Ok(addr)
            }
            None => {
                self.ops.push(Op::Alloc(plan.instance_bytes));
                let addr = self.heap.alloc(self.reg, kid)?;
                self.by_id.insert(id, addr);
                for expected in 0..plan.num_fields as usize {
                    self.expect(",")?;
                    let fname = self.parse_string()?;
                    self.ops.push(Op::StrCompare(fname.len() as u32));
                    // Streams we produced name fields in declaration
                    // order — check the expected slot first, fall back to
                    // a search (no narration either way).
                    let plan = plans.plan(kid);
                    let f = if *plan.field_names[expected] == *fname.as_bytes() {
                        expected
                    } else {
                        plan.field_names
                            .iter()
                            .position(|n| **n == *fname.as_bytes())
                            .ok_or(SerError::Malformed("unknown field"))?
                    };
                    self.expect(":")?;
                    let word = match plan.kinds[f] {
                        FieldKind::Value(vt) => {
                            let text = self.take_until(b",}")?;
                            parse_value(vt, text)?
                        }
                        FieldKind::Ref => self.parse_ref()?.get(),
                    };
                    self.ops
                        .store(addr.add_words((HEADER_WORDS + f) as u64).get(), 8);
                    self.heap.set_field(addr, f, word);
                    self.ops.maybe_flush(&mut *self.sink);
                }
                self.expect("}")?;
                Ok(addr)
            }
        }
    }
}

pub(super) fn deserialize(
    bytes: &[u8],
    reg: &KlassRegistry,
    dst: &mut Heap,
    sink: &mut dyn TraceSink,
) -> Result<Addr, SerError> {
    let mut ctx = CDe {
        text: bytes,
        pos: 0,
        depth: 0,
        reg,
        plans: plans_for(reg),
        heap: dst,
        by_id: HashMap::new(),
        ops: OpBuf::for_sink(&*sink),
        sink,
    };
    let result = ctx.parse_ref();
    // Buffered ops reach the sink on both Ok and Err paths.
    let CDe {
        ref mut ops,
        ref mut sink,
        ..
    } = ctx;
    ops.flush(&mut **sink);
    result
}
