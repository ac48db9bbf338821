//! Per-klass compiled serialization plans.
//!
//! The paper's core observation is that software serializers spend most of
//! their time *re-interpreting* type metadata: every object walk re-fetches
//! `fields()`, re-matches each field's kind, and re-derives widths, names
//! and wire tags that never change for a given klass. Cereal's SU/DU
//! pipelines resolve a layout once and then stream flat copy work; this
//! module gives the software backends the same shape in software.
//!
//! [`PlanCache::compile`] lowers every klass in a registry into a flat
//! field *program* ([`Plan`]): maximal primitive copy runs ([`Step::Run`],
//! built on [`sdheap::Klass::prim_runs`]), an ordered reference-slot list
//! ([`Step::Ref`]), and pre-resolved metadata — instance size, wire-id
//! varint bytes, field-name lengths, JSON header/field-prefix strings.
//! The plan is the frontend; the wire format is the backend. Java S/D,
//! Kryo and ProtoLike run these programs through the one traversal in
//! `runner.rs`, each supplying only its wire dialect
//! (`runner::Dialect`). Skyway and Archive are dialects of the image codec
//! in `image.rs` (`image::Dialect`), whose layout pass sizes records and
//! finds reference slots from the same plans; JsonLike's text executor
//! reads them too.
//!
//! The byte streams and narrated [`crate::Op`] sequences of these
//! backends — and therefore every simulated metric downstream — are
//! pinned by the frozen fixtures in `tests/golden_serde.rs`.

use sdheap::{FieldKind, KlassId, KlassRegistry, ValueType};
use std::cell::RefCell;
use std::rc::Rc;

/// One primitive field inside a copy run, with everything the executors
/// need pre-resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrimField {
    /// Declared field index.
    pub idx: u32,
    /// Primitive type.
    pub vt: ValueType,
    /// Field-name length in bytes (reflection/string narration).
    pub name_len: u32,
}

/// One step of a klass's field program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A maximal run of adjacent primitive fields:
    /// `prims[prim_start..prim_start + prim_len]`.
    Run {
        /// First entry in [`Plan::prims`].
        prim_start: u32,
        /// Number of fields in the run.
        prim_len: u32,
    },
    /// A reference slot at declared field `idx`.
    Ref {
        /// Declared field index.
        idx: u32,
        /// Field-name length in bytes.
        name_len: u32,
    },
}

/// The compiled program for one klass.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The klass this plan was compiled from.
    pub id: KlassId,
    /// `Some(elem)` for array klasses.
    pub array_elem: Option<FieldKind>,
    /// Declared field count (0 for arrays).
    pub num_fields: u32,
    /// Instance size in bytes, header included (0 for arrays).
    pub instance_bytes: u32,
    /// The field program, in declaration order.
    pub steps: Vec<Step>,
    /// Primitive fields referenced by [`Step::Run`], in declaration order.
    pub prims: Vec<PrimField>,
    /// Declared indices of reference slots, in declaration order.
    pub ref_slots: Vec<u32>,
    /// Per-field kinds in declaration order (fallback paths).
    pub kinds: Vec<FieldKind>,
    /// The klass id as wire varint bytes (Kryo/ProtoLike class tag).
    pub id_varint: Vec<u8>,
    /// Field names as bytes, in declaration order (JSON field matching).
    pub field_names: Vec<Box<[u8]>>,
    /// JSON object header up to the id digits: `{"@c":"Name","@id":`.
    pub json_header: Box<[u8]>,
    /// JSON per-field prefixes: `,"name":`, in declaration order.
    pub json_prefixes: Vec<Box<[u8]>>,
}

impl Plan {
    fn compile(id: KlassId, k: &sdheap::Klass) -> Plan {
        let fields = k.fields();
        let kinds: Vec<FieldKind> = fields.iter().map(|f| f.kind).collect();
        let mut prims = Vec::new();
        let mut steps = Vec::new();
        let runs = k.prim_runs();
        let mut next_run = runs.iter().copied().peekable();
        let mut i = 0usize;
        while i < fields.len() {
            if let Some(&(start, len)) = next_run.peek() {
                if start == i {
                    next_run.next();
                    let prim_start = prims.len() as u32;
                    for (j, f) in fields[start..start + len].iter().enumerate() {
                        let FieldKind::Value(vt) = f.kind else {
                            unreachable!("prim_runs returned a ref slot");
                        };
                        prims.push(PrimField {
                            idx: (start + j) as u32,
                            vt,
                            name_len: f.name.len() as u32,
                        });
                    }
                    steps.push(Step::Run {
                        prim_start,
                        prim_len: len as u32,
                    });
                    i = start + len;
                    continue;
                }
            }
            debug_assert!(fields[i].kind.is_ref());
            steps.push(Step::Ref {
                idx: i as u32,
                name_len: fields[i].name.len() as u32,
            });
            i += 1;
        }

        let ref_slots: Vec<u32> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_ref())
            .map(|(i, _)| i as u32)
            .collect();

        let mut id_varint = Vec::new();
        sdformat::varint::write_varint(&mut id_varint, u64::from(id.get()));

        let field_names: Vec<Box<[u8]>> = fields
            .iter()
            .map(|f| f.name.as_bytes().to_vec().into_boxed_slice())
            .collect();
        let json_prefixes: Vec<Box<[u8]>> = fields
            .iter()
            .map(|f| format!(",\"{}\":", f.name).into_bytes().into_boxed_slice())
            .collect();
        let json_header = format!("{{\"@c\":\"{}\",\"@id\":", k.name())
            .into_bytes()
            .into_boxed_slice();

        Plan {
            id,
            array_elem: k.array_elem(),
            num_fields: fields.len() as u32,
            instance_bytes: if k.is_array() {
                0
            } else {
                (k.instance_words() * 8) as u32
            },
            steps,
            prims,
            ref_slots,
            kinds,
            id_varint,
            field_names,
            json_header,
            json_prefixes,
        }
    }

    /// `true` for array klasses.
    pub fn is_array(&self) -> bool {
        self.array_elem.is_some()
    }
}

/// All plans of one registry, indexed by klass id.
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    plans: Vec<Plan>,
}

impl PlanCache {
    /// Compiles every klass of `reg` into its field program.
    pub fn compile(reg: &KlassRegistry) -> PlanCache {
        PlanCache {
            plans: reg.iter().map(|(id, k)| Plan::compile(id, k)).collect(),
        }
    }

    /// The plan for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not part of the compiled registry.
    #[inline]
    pub fn plan(&self, id: KlassId) -> &Plan {
        &self.plans[id.get() as usize]
    }

    /// Number of compiled plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// `true` when no plan is compiled.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// FNV-1a fingerprint of a registry's layout-relevant content. Two
/// registries with the same fingerprint compile to the same plans.
fn registry_fingerprint(reg: &KlassRegistry) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    };
    let kind_byte = |k: FieldKind| match k {
        FieldKind::Ref => 0u8,
        FieldKind::Value(vt) => vt.signature() as u8,
    };
    for b in (reg.len() as u64).to_le_bytes() {
        eat(b);
    }
    for (_, k) in reg.iter() {
        for &b in k.name().as_bytes() {
            eat(b);
        }
        eat(0xff);
        match k.array_elem() {
            Some(elem) => {
                eat(b'[');
                eat(kind_byte(elem));
            }
            None => {
                for f in k.fields() {
                    for &b in f.name.as_bytes() {
                        eat(b);
                    }
                    eat(0xfe);
                    eat(kind_byte(f.kind));
                }
            }
        }
        eat(0xfd);
    }
    h
}

thread_local! {
    /// Registry fingerprint → compiled plans. Registries per process are
    /// few, so a small linear-probed vec beats a hash map here.
    static PLAN_MEMO: RefCell<Vec<(u64, Rc<PlanCache>)>> = const { RefCell::new(Vec::new()) };
}

/// The compiled plans for `reg`, memoized per thread by registry
/// fingerprint: repeated serializer calls over the same registry reuse one
/// compilation, mirroring the paper's "resolve the layout once" step.
pub fn plans_for(reg: &KlassRegistry) -> Rc<PlanCache> {
    let fp = registry_fingerprint(reg);
    PLAN_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if let Some((_, cache)) = memo.iter().find(|(f, _)| *f == fp) {
            return Rc::clone(cache);
        }
        let cache = Rc::new(PlanCache::compile(reg));
        // Bound the memo: registries churn in tests; keep the newest few.
        if memo.len() >= 32 {
            memo.remove(0);
        }
        memo.push((fp, Rc::clone(&cache)));
        cache
    })
}

/// Writes the decimal digits of `v` into `buf` and returns the slice —
/// the allocation-free integer formatting the JSON executor uses.
#[inline]
pub fn decimal(v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &buf[i..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::Klass;

    fn plan_of(kinds: Vec<FieldKind>) -> Plan {
        let mut reg = KlassRegistry::new();
        let id = reg.register(Klass::new("K", kinds));
        PlanCache::compile(&reg).plan(id).clone()
    }

    #[test]
    fn compiler_coalesces_adjacent_prims_into_single_runs() {
        let p = plan_of(vec![
            FieldKind::Value(ValueType::Long),
            FieldKind::Value(ValueType::Int),
            FieldKind::Value(ValueType::Byte),
            FieldKind::Ref,
            FieldKind::Value(ValueType::Double),
        ]);
        assert_eq!(p.steps.len(), 3, "run, ref, run: {:?}", p.steps);
        assert_eq!(
            p.steps[0],
            Step::Run {
                prim_start: 0,
                prim_len: 3
            }
        );
        assert_eq!(p.steps[1], Step::Ref { idx: 3, name_len: 2 });
        assert_eq!(
            p.steps[2],
            Step::Run {
                prim_start: 3,
                prim_len: 1
            }
        );
        // Prim metadata rides along in declaration order.
        assert_eq!(
            p.prims.iter().map(|f| f.idx).collect::<Vec<_>>(),
            vec![0, 1, 2, 4]
        );
        assert_eq!(p.prims[3].vt, ValueType::Double);
    }

    #[test]
    fn compiler_orders_ref_slots_correctly() {
        let p = plan_of(vec![
            FieldKind::Ref,
            FieldKind::Value(ValueType::Long),
            FieldKind::Ref,
            FieldKind::Ref,
            FieldKind::Value(ValueType::Int),
        ]);
        assert_eq!(p.ref_slots, vec![0, 2, 3]);
        let step_refs: Vec<u32> = p
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Ref { idx, .. } => Some(*idx),
                Step::Run { .. } => None,
            })
            .collect();
        assert_eq!(step_refs, vec![0, 2, 3], "program order = declaration order");
    }

    #[test]
    fn metadata_is_preresolved() {
        let mut reg = KlassRegistry::new();
        let id = reg.register(Klass::new(
            "Node",
            vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
        ));
        let arr = reg.register(Klass::array("double[]", FieldKind::Value(ValueType::Double)));
        let cache = PlanCache::compile(&reg);
        let p = cache.plan(id);
        assert_eq!(p.num_fields, 2);
        assert_eq!(p.instance_bytes, (3 + 2) * 8);
        assert_eq!(p.id_varint, vec![id.get() as u8]);
        assert_eq!(&*p.json_header, b"{\"@c\":\"Node\",\"@id\":" as &[u8]);
        assert_eq!(&*p.json_prefixes[0], b",\"f0\":" as &[u8]);
        assert_eq!(&*p.field_names[1], b"f1" as &[u8]);
        let a = cache.plan(arr);
        assert!(a.is_array());
        assert_eq!(a.array_elem, Some(FieldKind::Value(ValueType::Double)));
        assert!(a.steps.is_empty());
    }

    #[test]
    fn plans_are_memoized_by_registry_fingerprint() {
        let mut reg = KlassRegistry::new();
        reg.register(Klass::new("A", vec![FieldKind::Value(ValueType::Long)]));
        let first = plans_for(&reg);
        let again = plans_for(&reg.clone());
        assert!(Rc::ptr_eq(&first, &again), "same layout → same compilation");
        let mut other = reg.clone();
        other.register(Klass::new("B", vec![FieldKind::Ref]));
        let different = plans_for(&other);
        assert!(!Rc::ptr_eq(&first, &different));
        assert_eq!(different.len(), 2);
    }

    #[test]
    fn decimal_formats_like_display() {
        let mut buf = [0u8; 20];
        for v in [0u64, 1, 9, 10, 42, 12345, u64::MAX] {
            assert_eq!(decimal(v, &mut buf), v.to_string().as_bytes());
        }
    }
}
