//! Property-based tests for the triple store: every index-selected scan
//! agrees with full-scan filtering, and insert/remove keep the three
//! indexes consistent.

use kgq_rdf::{IndexOrder, Triple, TripleStore};
use proptest::prelude::*;
use std::collections::HashSet;

const TERMS: usize = 6;

fn store_from(triples: &[(usize, usize, usize)]) -> TripleStore {
    let mut st = TripleStore::new();
    for &(s, p, o) in triples {
        st.insert_strs(&format!("t{s}"), &format!("t{p}"), &format!("t{o}"));
    }
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scans_match_filter_semantics(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        pattern in (proptest::option::of(0..TERMS), proptest::option::of(0..TERMS), proptest::option::of(0..TERMS)),
    ) {
        let st = store_from(&triples);
        let term = |i: usize| st.get_term(&format!("t{i}"));
        let (ps, pp, po) = pattern;
        // If a pattern term was never interned there can be no matches.
        let s = ps.map(term);
        let p = pp.map(term);
        let o = po.map(term);
        if s == Some(None) || p == Some(None) || o == Some(None) {
            return Ok(());
        }
        let s = s.flatten();
        let p = p.flatten();
        let o = o.flatten();
        let mut scanned: Vec<Triple> = st.scan(s, p, o).collect();
        scanned.sort();
        scanned.dedup();
        let mut filtered: Vec<Triple> = st
            .iter()
            .filter(|t| s.is_none_or(|x| t.s == x))
            .filter(|t| p.is_none_or(|x| t.p == x))
            .filter(|t| o.is_none_or(|x| t.o == x))
            .collect();
        filtered.sort();
        prop_assert_eq!(scanned, filtered);
    }

    #[test]
    fn insert_remove_keep_indexes_consistent(
        ops in proptest::collection::vec((any::<bool>(), 0..TERMS, 0..TERMS, 0..TERMS), 1..60),
    ) {
        let mut st = TripleStore::new();
        let mut reference = std::collections::BTreeSet::new();
        for (insert, s, p, o) in ops {
            let t = Triple {
                s: st.term(&format!("t{s}")),
                p: st.term(&format!("t{p}")),
                o: st.term(&format!("t{o}")),
            };
            if insert {
                let fresh = st.insert(t);
                prop_assert_eq!(fresh, reference.insert((t.s, t.p, t.o)));
            } else {
                let was = st.remove(t);
                prop_assert_eq!(was, reference.remove(&(t.s, t.p, t.o)));
            }
            prop_assert_eq!(st.len(), reference.len());
        }
        // All three index-backed access paths see the same triples.
        for &(s, p, o) in &reference {
            let t = Triple { s, p, o };
            prop_assert!(st.contains(t));
            prop_assert!(st.scan(Some(s), None, None).any(|x| x == t));
            prop_assert!(st.scan(None, Some(p), None).any(|x| x == t));
            prop_assert!(st.scan(None, None, Some(o)).any(|x| x == t));
        }
    }

    /// The durable write path replays arbitrary insert/delete sequences
    /// into a fresh store on recovery, so every interleaving must leave
    /// all six clustered orderings sorted, deduplicated, and in exact
    /// agreement with a [`HashSet`] oracle of the surviving triples.
    #[test]
    fn six_orderings_survive_random_op_sequences(
        ops in proptest::collection::vec((any::<bool>(), 0..TERMS, 0..TERMS, 0..TERMS), 0..80),
    ) {
        let mut st = TripleStore::new();
        let mut oracle: HashSet<(usize, usize, usize)> = HashSet::new();
        for &(insert, s, p, o) in &ops {
            let t = Triple {
                s: st.term(&format!("t{s}")),
                p: st.term(&format!("t{p}")),
                o: st.term(&format!("t{o}")),
            };
            if insert {
                st.insert(t);
                oracle.insert((s, p, o));
            } else {
                st.remove(t);
                oracle.remove(&(s, p, o));
            }
            prop_assert_eq!(st.len(), oracle.len());
        }
        // Every ordering holds exactly the oracle's triples, strictly
        // ascending in its own key layout (sorted AND deduplicated).
        for ord in IndexOrder::ALL {
            let rows = st.order(ord);
            prop_assert_eq!(rows.len(), oracle.len(), "ordering {} has wrong cardinality", ord.name());
            prop_assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "ordering {} is not strictly sorted", ord.name()
            );
            let mut via: HashSet<(usize, usize, usize)> = HashSet::new();
            for &key in rows {
                let t = ord.triple(key);
                let term = |sym| st.term_str(sym)[1..].parse::<usize>().unwrap();
                via.insert((term(t.s), term(t.p), term(t.o)));
            }
            prop_assert_eq!(&via, &oracle, "ordering {} diverged from the oracle", ord.name());
        }
    }

    /// The bulk pair equals its point loops: `extend_strs` on an empty
    /// store, a second `extend` merging into it, then `remove_all` —
    /// each against `insert_strs` / `insert` / `remove` one triple at a
    /// time, return counts, `Sym` numbering and all six orderings
    /// included. Batches carry in-batch duplicates, already-present
    /// triples (for `extend`) and absent ones (for `remove_all`).
    #[test]
    fn bulk_extend_and_remove_all_equal_their_point_loops(
        load in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..60),
        more in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..30),
        gone in proptest::collection::vec((0..TERMS + 2, 0..TERMS, 0..TERMS), 0..60),
    ) {
        let names = |v: &[(usize, usize, usize)]| -> Vec<(String, String, String)> {
            v.iter().map(|&(s, p, o)| (format!("t{s}"), format!("t{p}"), format!("t{o}"))).collect()
        };
        let same = |bulk: &TripleStore, point: &TripleStore| -> proptest::test_runner::TestCaseResult {
            prop_assert_eq!(bulk.terms().len(), point.terms().len());
            for ord in IndexOrder::ALL {
                prop_assert_eq!(bulk.order(ord), point.order(ord), "ordering {}", ord.name());
                prop_assert!(bulk.order(ord).windows(2).all(|w| w[0] < w[1]));
            }
            Ok(())
        };
        let (load, more, gone) = (names(&load), names(&more), names(&gone));
        let (mut bulk, mut point) = (TripleStore::new(), TripleStore::new());

        // Empty-store fast path.
        let added = bulk.extend_strs(&load);
        let want = load.iter().filter(|(s, p, o)| point.insert_strs(s, p, o)).count();
        prop_assert_eq!(added, want);
        same(&bulk, &point)?;

        // Merge into a non-empty store.
        let added = bulk.extend_strs(&more);
        let want = more.iter().filter(|(s, p, o)| point.insert_strs(s, p, o)).count();
        prop_assert_eq!(added, want);
        same(&bulk, &point)?;

        // Removal; terms the store never interned name nothing.
        let doomed: Vec<Triple> = gone
            .iter()
            .filter_map(|(s, p, o)| bulk.get_triple(s, p, o))
            .collect();
        let removed = bulk.remove_all(doomed.iter().copied());
        let want = doomed.iter().filter(|&&t| point.remove(t)).count();
        prop_assert_eq!(removed, want);
        same(&bulk, &point)?;
    }
}
