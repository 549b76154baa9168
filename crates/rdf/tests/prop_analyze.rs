//! Property-based tests for BGP static analysis: on random stores and
//! random BGPs the analyzer's verdicts must agree with execution — a
//! provably-empty verdict means the evaluator returns zero rows at any
//! partition count (so the Deny short-circuit is byte-identical to
//! evaluating), and every plan the planner emits must pass the
//! independent soundness verifier.

use kgq_core::govern::{Budget, Completion, Governor};
use kgq_rdf::bgp::Bgp;
use kgq_rdf::{analyze_bgp, lftj, TripleStore};
use proptest::prelude::*;

const TERMS: usize = 6;
const VARS: usize = 4;

/// One slot of a random triple pattern.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Analyzer/execution agreement: when the analyzer proves the BGP
    /// empty, evaluation returns zero rows at 1, 2 and 4 chunks — the
    /// short-circuit that skips planning answers exactly what a full
    /// evaluation would. Conversely a non-empty answer is never denied
    /// as empty.
    #[test]
    fn provably_empty_agrees_with_execution(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..6),
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let report = analyze_bgp(&st, &bgp, None);
        if report.provably_empty {
            for chunks in [1usize, 2, 4] {
                let sol = lftj::solve_planned(&st, &bgp, &lftj::plan(&st, &bgp), chunks);
                prop_assert!(
                    sol.rows.is_empty(),
                    "analyzer declared the BGP empty but evaluation at {} chunk(s) \
                     found {} row(s)",
                    chunks,
                    sol.rows.len()
                );
            }
        } else {
            // No claim either way: the analyzer is conservative, so a
            // non-flagged BGP may still evaluate empty. That is sound.
        }
    }

    /// Every plan the greedy planner emits passes the independent
    /// soundness verifier: total elimination order, patterns resolvable
    /// in that order, cardinalities consistent with the store.
    #[test]
    fn planner_output_passes_verification(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..6),
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let plan = lftj::plan(&st, &bgp);
        let checked = lftj::verify_plan(&st, &bgp, &plan);
        prop_assert!(
            checked.is_ok(),
            "planner emitted a plan the verifier rejects: {:?}",
            checked
        );
    }

    /// With an unlimited budget the analysis-gated governed evaluator
    /// (which re-verifies the plan before running) completes and returns
    /// exactly the ungoverned answer — the soundness gate never rejects
    /// a legitimate plan or perturbs results.
    #[test]
    fn verified_governed_run_matches_ungoverned(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..5),
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let full = lftj::solve(&st, &bgp);
        let gov = Governor::new(&Budget::unlimited());
        let got = lftj::solve_governed(&st, &bgp, &gov)
            .expect("unlimited governed run must not error (PlanUnsound would surface here)");
        prop_assert!(matches!(got.completion, Completion::Complete));
        prop_assert_eq!(got.value, full);
    }
}
