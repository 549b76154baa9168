//! The bulk lifecycle against its point-insert oracle.
//!
//! `DurableStore` builds every whole store — the base at `open`, the
//! merged view in `materialize`/`scan_all`, the next segment in
//! `compact` — with one bulk `extend` per build. [`PointModel`] below is
//! the lifecycle as it was before that: the same algebra, but every
//! (re)build is one `insert_strs` per triple and compaction encodes an
//! owned `Segment`. Random histories (insert / delete / edge / commit /
//! compact / reopen over a universe small enough that in-batch
//! duplicates, deletes of absent triples and deletes of overlay-only
//! triples all occur) must leave the two indistinguishable: same merged
//! view, same counts, same `Sym` rows in all six orderings, and a
//! byte-identical `base.seg`.

use kgq_rdf::{IndexOrder, TripleStore};
use kgq_store::segment::{self, Segment};
use kgq_store::{DurableStore, EdgeRec, StoreOp};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

type StrTriple = (String, String, String);

const SUBJECTS: usize = 4;
const PREDICATES: usize = 2;
const OBJECTS: usize = 5;

fn name(s: usize, p: usize, o: usize) -> StrTriple {
    (format!("n{s}"), format!("p{p}"), format!("n{o}"))
}

fn edge(id: usize) -> EdgeRec {
    EdgeRec {
        id: format!("e{id}"),
        src: format!("n{id}"),
        src_label: "person".into(),
        label: "rides".into(),
        dst: format!("n{}", id + 1),
        dst_label: "bus".into(),
    }
}

fn base_contains(base: &TripleStore, (s, p, o): &StrTriple) -> bool {
    base.get_triple(s, p, o).is_some_and(|t| base.contains(t))
}

/// The pre-bulk lifecycle, one point insert at a time.
struct PointModel {
    generation: u64,
    base: TripleStore,
    base_edges: Vec<EdgeRec>,
    added: BTreeSet<StrTriple>,
    tombstoned: BTreeSet<StrTriple>,
    edges: Vec<EdgeRec>,
    /// Batches committed since the last compaction (what the WAL holds).
    log: Vec<Vec<StoreOp>>,
    /// What `base.seg` must hold, byte for byte (`None` = no file yet).
    segment: Option<Vec<u8>>,
}

impl PointModel {
    fn new() -> PointModel {
        PointModel {
            generation: 0,
            base: TripleStore::new(),
            base_edges: Vec::new(),
            added: BTreeSet::new(),
            tombstoned: BTreeSet::new(),
            edges: Vec::new(),
            log: Vec::new(),
            segment: None,
        }
    }

    fn apply(&mut self, op: &StoreOp) {
        match op {
            StoreOp::Insert { s, p, o } => {
                let key = (s.clone(), p.clone(), o.clone());
                if !self.tombstoned.remove(&key) && !base_contains(&self.base, &key) {
                    self.added.insert(key);
                }
            }
            StoreOp::Delete { s, p, o } => {
                let key = (s.clone(), p.clone(), o.clone());
                if !self.added.remove(&key) && base_contains(&self.base, &key) {
                    self.tombstoned.insert(key);
                }
            }
            StoreOp::EdgeAdd(e) => {
                let known = self.base_edges.iter().chain(&self.edges);
                if !known.into_iter().any(|k| k.id == e.id) {
                    self.edges.push(e.clone());
                }
            }
        }
    }

    fn commit(&mut self, ops: Vec<StoreOp>) {
        if ops.is_empty() {
            return;
        }
        for op in &ops {
            self.apply(op);
        }
        self.log.push(ops);
        self.generation += 1;
    }

    fn materialize(&self) -> TripleStore {
        let mut merged = TripleStore::new();
        for t in self.base.iter() {
            let s = self.base.term_str(t.s);
            let p = self.base.term_str(t.p);
            let o = self.base.term_str(t.o);
            if !self
                .tombstoned
                .contains(&(s.to_owned(), p.to_owned(), o.to_owned()))
            {
                merged.insert_strs(s, p, o);
            }
        }
        for (s, p, o) in &self.added {
            merged.insert_strs(s, p, o);
        }
        merged
    }

    fn scan_all(&self) -> Vec<StrTriple> {
        let merged = self.materialize();
        let mut out: Vec<StrTriple> = merged
            .iter()
            .map(|t| {
                (
                    merged.term_str(t.s).to_owned(),
                    merged.term_str(t.p).to_owned(),
                    merged.term_str(t.o).to_owned(),
                )
            })
            .collect();
        out.sort();
        out
    }

    fn compact(&mut self) {
        let merged = self.materialize();
        let triples: Vec<StrTriple> = merged
            .iter()
            .map(|t| {
                (
                    merged.term_str(t.s).to_owned(),
                    merged.term_str(t.p).to_owned(),
                    merged.term_str(t.o).to_owned(),
                )
            })
            .collect();
        let edges: Vec<EdgeRec> = self.base_edges.iter().chain(&self.edges).cloned().collect();
        let seg = Segment {
            generation: self.generation,
            triples,
            edges,
            packed: None,
        };
        self.segment = Some(segment::encode(&seg));
        self.base = merged;
        self.base_edges = seg.edges;
        self.edges.clear();
        self.added.clear();
        self.tombstoned.clear();
        self.log.clear();
    }

    /// Recovery: decode the segment, rebuild the base one triple at a
    /// time, replay the log.
    fn reopen(&mut self) {
        let seg = match &self.segment {
            Some(image) => segment::decode(image).unwrap(),
            None => Segment::default(),
        };
        self.base = TripleStore::new();
        for (s, p, o) in &seg.triples {
            self.base.insert_strs(s, p, o);
        }
        self.base_edges = seg.edges;
        self.edges.clear();
        self.added.clear();
        self.tombstoned.clear();
        for ops in std::mem::take(&mut self.log) {
            for op in &ops {
                self.apply(op);
            }
            self.log.push(ops);
        }
    }
}

fn tmp_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kgq-prop-bulk-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything observable about the two must agree.
fn assert_same(real: &DurableStore, model: &PointModel) -> proptest::test_runner::TestCaseResult {
    prop_assert_eq!(real.generation(), model.generation);
    let want = model.scan_all();
    prop_assert_eq!(&real.scan_all(), &want);
    prop_assert_eq!(real.len(), want.len());
    prop_assert_eq!(real.is_empty(), want.is_empty());
    prop_assert_eq!(
        real.overlay_sizes(),
        (model.added.len(), model.tombstoned.len())
    );
    prop_assert!(real.check_invariants().is_ok());

    // `contains` over the whole universe; `count` over every pattern
    // shape, with a term the store never saw thrown in.
    for s in 0..SUBJECTS {
        for p in 0..PREDICATES {
            for o in 0..OBJECTS {
                let t = name(s, p, o);
                prop_assert_eq!(real.contains(&t.0, &t.1, &t.2), want.contains(&t));
            }
        }
    }
    let terms = |n: usize, prefix: &str| -> Vec<Option<String>> {
        let mut v: Vec<Option<String>> = (0..n).map(|i| Some(format!("{prefix}{i}"))).collect();
        v.push(Some("ghost".into()));
        v.push(None);
        v
    };
    for s in terms(SUBJECTS, "n") {
        for p in terms(PREDICATES, "p") {
            for o in terms(OBJECTS, "n") {
                let hit = |bound: &Option<String>, term: &String| {
                    bound.as_ref().is_none_or(|b| b == term)
                };
                let expect = want
                    .iter()
                    .filter(|(ts, tp, to)| hit(&s, ts) && hit(&p, tp) && hit(&o, to))
                    .count();
                prop_assert_eq!(
                    real.count(s.as_deref(), p.as_deref(), o.as_deref()),
                    expect,
                    "count({:?}, {:?}, {:?})",
                    s,
                    p,
                    o
                );
            }
        }
    }

    // The bulk-built merged store is the point-built one, row for row:
    // same interning order, so the same `Sym`s in all six orderings.
    let (bulk, point) = (real.materialize(), model.materialize());
    let interned = |st: &TripleStore| -> Vec<String> {
        st.terms().iter().map(|(_, s)| s.to_owned()).collect()
    };
    prop_assert_eq!(interned(&bulk), interned(&point));
    let spo: BTreeSet<kgq_rdf::Triple> = bulk.iter().collect();
    for ord in IndexOrder::ALL {
        let rows = bulk.order(ord);
        prop_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "{} unsorted",
            ord.name()
        );
        let via: BTreeSet<kgq_rdf::Triple> = rows.iter().map(|&k| ord.triple(k)).collect();
        prop_assert_eq!(&via, &spo, "ordering {} holds another set", ord.name());
        prop_assert_eq!(rows, point.order(ord), "ordering {}", ord.name());
    }

    // Edges, and the segment on disk.
    let edges: Vec<&EdgeRec> = real.all_edges().collect();
    let model_edges: Vec<&EdgeRec> = model.base_edges.iter().chain(&model.edges).collect();
    prop_assert_eq!(real.edge_count(), model_edges.len());
    prop_assert_eq!(edges, model_edges);
    let on_disk = std::fs::read(real.dir().join("base.seg")).ok();
    prop_assert_eq!(&on_disk, &model.segment, "base.seg bytes diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bulk_lifecycle_equals_the_point_insert_oracle(
        steps in proptest::collection::vec(
            (0u8..12, 0..SUBJECTS, 0..PREDICATES, 0..OBJECTS),
            1..70,
        ),
    ) {
        let dir = tmp_dir();
        let mut real = DurableStore::open(&dir).unwrap().0;
        let mut model = PointModel::new();
        let mut staged: Vec<StoreOp> = Vec::new();
        for (kind, s, p, o) in steps {
            let (ts, tp, to) = name(s, p, o);
            match kind {
                0..=4 => {
                    real.stage_insert(&ts, &tp, &to);
                    staged.push(StoreOp::Insert { s: ts, p: tp, o: to });
                }
                5..=7 => {
                    real.stage_delete(&ts, &tp, &to);
                    staged.push(StoreOp::Delete { s: ts, p: tp, o: to });
                }
                8 => {
                    real.stage_edge(edge(s + o));
                    staged.push(StoreOp::EdgeAdd(edge(s + o)));
                }
                9 => {
                    real.commit().unwrap();
                    model.commit(std::mem::take(&mut staged));
                    assert_same(&real, &model)?;
                }
                10 => {
                    // Staged ops survive a compaction untouched.
                    real.compact().unwrap();
                    model.compact();
                    assert_same(&real, &model)?;
                }
                _ => {
                    // Staged, uncommitted ops die with the process.
                    drop(real);
                    staged.clear();
                    real = DurableStore::open(&dir).unwrap().0;
                    model.reopen();
                    assert_same(&real, &model)?;
                }
            }
        }
        real.commit().unwrap();
        model.commit(staged);
        assert_same(&real, &model)?;
        real.compact().unwrap();
        model.compact();
        assert_same(&real, &model)?;
        drop(real);
        let real = DurableStore::open(&dir).unwrap().0;
        model.reopen();
        assert_same(&real, &model)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
