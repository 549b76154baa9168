//! The bulk lifecycle against its point-at-a-time oracle.
//!
//! `DurableStore` keeps one live `TripleStore` and applies each
//! committed batch to it with one bulk `apply`; recovery folds every
//! replayed batch into a single `apply`, the last op on a triple
//! winning. [`PointModel`] below is the same lifecycle one op at a
//! time: every insert is an `insert_strs`, every delete a `remove`, and
//! recovery replays each batch in turn. Random histories (insert /
//! delete / insert-then-delete and delete-then-insert of one triple /
//! edge / commit / compact / reopen, over a universe small enough that
//! in-batch and cross-batch repeats of a triple, deletes of absent
//! triples and deletes of triples inserted since the last compaction
//! all occur) must leave the two indistinguishable: same committed
//! view, same counts, six consistent orderings, and a `base.seg` that
//! holds the same generation, triples and edges.

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

fn strings(st: &TripleStore) -> Vec<StrTriple> {
    let mut out: Vec<StrTriple> = st
        .iter()
        .map(|t| {
            (
                st.term_str(t.s).to_owned(),
                st.term_str(t.p).to_owned(),
                st.term_str(t.o).to_owned(),
            )
        })
        .collect();
    out.sort();
    out
}

/// The lifecycle one op at a time.
struct PointModel {
    generation: u64,
    store: TripleStore,
    edges: Vec<EdgeRec>,
    /// Batches committed since the last compaction (what the WAL holds).
    log: Vec<Vec<StoreOp>>,
    /// What `base.seg` must hold: generation, sorted triples, edges
    /// (`None` = no file yet).
    segment: Option<(u64, Vec<StrTriple>, Vec<EdgeRec>)>,
}

impl PointModel {
    fn new() -> PointModel {
        PointModel {
            generation: 0,
            store: TripleStore::new(),
            edges: Vec::new(),
            log: Vec::new(),
            segment: None,
        }
    }

    fn apply(&mut self, op: &StoreOp) {
        match op {
            StoreOp::Insert { s, p, o } => {
                self.store.insert_strs(s, p, o);
            }
            StoreOp::Delete { s, p, o } => {
                if let Some(t) = self.store.get_triple(s, p, o) {
                    self.store.remove(t);
                }
            }
            StoreOp::EdgeAdd(e) => {
                if !self.edges.iter().any(|k| k.id == e.id) {
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

    fn compact(&mut self) {
        self.segment = Some((self.generation, strings(&self.store), self.edges.clone()));
        self.log.clear();
    }

    /// Recovery: rebuild from the segment one triple at a time, then
    /// replay each logged batch in turn.
    fn reopen(&mut self) {
        let (generation, triples, edges) = self.segment.clone().unwrap_or_default();
        self.store = TripleStore::new();
        for (s, p, o) in &triples {
            self.store.insert_strs(s, p, o);
        }
        self.edges = edges;
        self.generation = generation;
        for ops in std::mem::take(&mut self.log) {
            self.commit(ops);
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
    let want = strings(&model.store);
    prop_assert_eq!(&real.scan_all(), &want);
    prop_assert_eq!(real.len(), want.len());
    prop_assert_eq!(real.is_empty(), want.is_empty());

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

    // The live store's six orderings are sorted and hold one set.
    let live = real.store();
    let spo: BTreeSet<kgq_rdf::Triple> = live.iter().collect();
    for ord in IndexOrder::ALL {
        let rows = live.order(ord);
        prop_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "{} unsorted",
            ord.name()
        );
        let via: BTreeSet<kgq_rdf::Triple> = rows.iter().map(|&k| ord.triple(k)).collect();
        prop_assert_eq!(&via, &spo, "ordering {} holds another set", ord.name());
    }

    // Edges, and the segment on disk.
    let edges: Vec<&EdgeRec> = real.all_edges().collect();
    prop_assert_eq!(real.edge_count(), model.edges.len());
    prop_assert_eq!(edges, model.edges.iter().collect::<Vec<_>>());
    let on_disk = std::fs::read(real.dir().join("base.seg"))
        .ok()
        .map(|image| segment::decode(&image).unwrap())
        .map(|seg: Segment| {
            let mut triples = seg.triples;
            triples.sort();
            (seg.generation, triples, seg.edges)
        });
    prop_assert_eq!(&on_disk, &model.segment, "base.seg holds another state");
    Ok(())
}

/// Stages `op` on the real store and in the model's pending batch.
fn stage(real: &mut DurableStore, staged: &mut Vec<StoreOp>, op: StoreOp) {
    match &op {
        StoreOp::Insert { s, p, o } => real.stage_insert(s, p, o),
        StoreOp::Delete { s, p, o } => real.stage_delete(s, p, o),
        StoreOp::EdgeAdd(e) => real.stage_edge(e.clone()),
    }
    staged.push(op);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bulk_lifecycle_equals_the_point_insert_oracle(
        steps in proptest::collection::vec(
            (0u8..14, 0..SUBJECTS, 0..PREDICATES, 0..OBJECTS),
            1..70,
        ),
    ) {
        let dir = tmp_dir();
        let mut real = DurableStore::open(&dir).unwrap().0;
        let mut model = PointModel::new();
        let mut staged: Vec<StoreOp> = Vec::new();
        for (kind, s, p, o) in steps {
            let (ts, tp, to) = name(s, p, o);
            let insert = StoreOp::Insert { s: ts.clone(), p: tp.clone(), o: to.clone() };
            let delete = StoreOp::Delete { s: ts, p: tp, o: to };
            match kind {
                0..=3 => stage(&mut real, &mut staged, insert),
                4..=5 => stage(&mut real, &mut staged, delete),
                6 => {
                    // One triple inserted, then deleted, in one batch.
                    stage(&mut real, &mut staged, insert);
                    stage(&mut real, &mut staged, delete);
                }
                7 => {
                    stage(&mut real, &mut staged, delete);
                    stage(&mut real, &mut staged, insert);
                }
                8 => stage(&mut real, &mut staged, StoreOp::EdgeAdd(edge(s + o))),
                9..=10 => {
                    real.commit().unwrap();
                    model.commit(std::mem::take(&mut staged));
                    assert_same(&real, &model)?;
                }
                11 => {
                    // Staged ops survive a compaction untouched.
                    real.compact().unwrap();
                    model.compact();
                    assert_same(&real, &model)?;
                }
                _ => {
                    // Staged, uncommitted ops die with the process; the
                    // recovery fold must equal replaying each batch.
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
        drop(real);
        let mut real = DurableStore::open(&dir).unwrap().0;
        model.reopen();
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
