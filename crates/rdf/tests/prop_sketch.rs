//! Property-based tests for the statistics plane (`kgq_rdf::sketch`),
//! the sketch-driven planner, and the governed approximate counter: on
//! random stores the per-ordering level statistics must agree with a
//! naive recomputation, distinct-count sketches must stay within their
//! advertised error bound, sketch-chosen plans must pass the exact
//! `verify_plan` gate and reproduce the greedy planner's answers, and
//! `approx_count_bgp` must land within its (ε, δ) contract — exactly,
//! on counts at or below the pivot.

use kgq_core::govern::Completion;
use kgq_rdf::bgp::{Bgp, Binding};
use kgq_rdf::sketch::DistinctSketch;
use kgq_rdf::{approx_count_bgp, lftj, select, BgpCountParams, StoreSketch};
use kgq_rdf::{IndexOrder, TripleStore};
use proptest::prelude::*;
use std::collections::BTreeSet;

const TERMS: usize = 6;
const VARS: usize = 4;

#[derive(Clone, Debug)]
enum Term {
    Var(usize),
    Const(usize),
}

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => (0..VARS).prop_map(Term::Var),
        1 => (0..TERMS).prop_map(Term::Const),
    ]
}

fn pattern() -> impl Strategy<Value = (Term, Term, Term)> {
    (term(), term(), term())
}

fn spell(t: &Term) -> String {
    match t {
        Term::Var(v) => format!("?v{v}"),
        Term::Const(c) => format!("t{c}"),
    }
}

fn setup(triples: &[(usize, usize, usize)], patterns: &[(Term, Term, Term)]) -> (TripleStore, Bgp) {
    let mut st = TripleStore::new();
    for &(s, p, o) in triples {
        st.insert_strs(&format!("t{s}"), &format!("t{p}"), &format!("t{o}"));
    }
    let mut bgp = Bgp::new();
    for (s, p, o) in patterns {
        bgp.add(&mut st, &spell(s), &spell(p), &spell(o));
    }
    (st, bgp)
}

fn canon(bindings: Vec<Binding>) -> Vec<Vec<(String, u32)>> {
    let mut v: Vec<Vec<(String, u32)>> = bindings
        .into_iter()
        .map(|b| {
            let mut row: Vec<(String, u32)> = b.into_iter().map(|(k, s)| (k, s.0)).collect();
            row.sort();
            row
        })
        .collect();
    v.sort();
    v
}

/// Key columns of `t` under ordering `o`.
fn keyed(o: IndexOrder, t: kgq_rdf::Triple) -> [u32; 3] {
    let spo = [t.s.0, t.p.0, t.o.0];
    let p = o.perm();
    [spo[p[0]], spo[p[1]], spo[p[2]]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-ordering level statistics agree with a naive recomputation
    /// from the store's triples, and the leading-column distinct-count
    /// sketch is exact at these cardinalities (its linear-counting
    /// error is negligible far below saturation).
    #[test]
    fn ordering_stats_match_naive_recomputation(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
    ) {
        let (st, _) = setup(&triples, &[]);
        let sk = StoreSketch::build(&st);
        prop_assert_eq!(sk.triples, st.len());
        for o in IndexOrder::ALL {
            let os = sk.ordering(o);
            let mut c0: BTreeSet<u32> = BTreeSet::new();
            let mut c01: BTreeSet<(u32, u32)> = BTreeSet::new();
            for t in st.scan(None, None, None) {
                let k = keyed(o, t);
                c0.insert(k[0]);
                c01.insert((k[0], k[1]));
            }
            prop_assert_eq!(os.rows, st.len());
            prop_assert_eq!(os.l1.distinct, c0.len());
            prop_assert_eq!(os.l2.distinct, c01.len());
            let est = os.col0.estimate();
            prop_assert!(
                (est - c0.len() as f64).abs() <= (c0.len() as f64 * 0.05).max(1.0),
                "col0 sketch {} vs true {}", est, c0.len()
            );
            for b in &os.heavy {
                let rows = st.scan(None, None, None)
                    .filter(|t| keyed(o, *t)[0] == b.value.0)
                    .count();
                let d2: BTreeSet<u32> = st.scan(None, None, None)
                    .filter(|t| keyed(o, *t)[0] == b.value.0)
                    .map(|t| keyed(o, t)[1])
                    .collect();
                prop_assert_eq!(b.rows, rows);
                prop_assert_eq!(b.distinct2, d2.len());
            }
        }
    }

    /// The distinct-count sketch honors its advertised bound across a
    /// wide cardinality range, not just tiny stores: within 10%
    /// relative error below half its bitmap saturation.
    #[test]
    fn distinct_sketch_tracks_cardinality_within_ten_percent(
        n in 1usize..2000,
        salt in 0u64..1000,
    ) {
        let mut sk = DistinctSketch::default();
        for i in 0..n {
            sk.insert(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64);
        }
        let est = sk.estimate();
        prop_assert!(
            (est - n as f64).abs() <= (n as f64 * 0.10).max(2.0),
            "estimate {} for {} distinct values", est, n
        );
    }

    /// Sketch-driven plans always pass the exact verification gate and
    /// reproduce the greedy planner's answers as a multiset.
    #[test]
    fn sketch_plans_verify_and_match_greedy_answers(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..6),
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let sk = StoreSketch::build(&st);
        let sp = lftj::plan_sketched(&st, &sk, &bgp);
        // The sketch plan is executed with no fallback, so it must verify.
        prop_assert!(lftj::verify_plan(&st, &bgp, &sp.plan).is_ok());
        let a = canon(lftj::solve_planned(&st, &bgp, &sp.plan, 1).bindings());
        let b = canon(lftj::solve(&st, &bgp).bindings());
        prop_assert_eq!(a, b);
    }

    /// The approximate counter's (ε, δ) contract, exercised on the
    /// exact rung: every count reachable at this store size sits at or
    /// below the pivot, where the contract requires the *exact* value,
    /// complete and not degraded — across seeds.
    #[test]
    fn approx_count_is_exact_at_or_below_the_pivot(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..5),
        seed in 0u64..u64::MAX,
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let exact = lftj::solve(&st, &bgp).rows.len() as u64;
        let sk = StoreSketch::build(&st);
        let params = BgpCountParams { seed, ..BgpCountParams::default() };
        if exact <= params.pivot() {
            let got = approx_count_bgp(&st, &sk, &bgp, params).unwrap();
            prop_assert_eq!(got.value, exact);
            prop_assert!(!got.degraded);
            prop_assert!(matches!(got.completion, Completion::Complete));
        }
    }

    /// `SELECT (COUNT(*) AS ?n)` answers with the same single row no
    /// matter how the underlying enumeration would have partitioned,
    /// and the value equals the engine's row count at chunks 1, 2, 4.
    #[test]
    fn count_output_shape_is_chunk_independent(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..5),
    ) {
        let (mut st, bgp) = setup(&triples, &patterns);
        let mut text = String::from("SELECT (COUNT(*) AS ?n) WHERE {");
        for p in &bgp.patterns {
            let t = |tp: &kgq_rdf::TermPattern| match tp {
                kgq_rdf::TermPattern::Const(s) => format!("<{}>", st.term_str(*s)),
                kgq_rdf::TermPattern::Var(v) => format!("?{v}"),
            };
            text.push_str(&format!(" {} {} {} .", t(&p.s), t(&p.p), t(&p.o)));
        }
        text.push_str(" }");
        let rows = select(&mut st, &text).unwrap();
        for chunks in [1usize, 2, 4] {
            let n = lftj::solve_planned(&st, &bgp, &lftj::plan(&st, &bgp), chunks).rows.len();
            prop_assert_eq!(&rows, &vec![vec![n.to_string()]], "chunks = {}", chunks);
        }
    }
}
