//! Property-based tests for the leapfrog-triejoin BGP engine: on random
//! stores and random BGPs (shared variables, constants, repeated
//! variables included), the worst-case optimal join must agree with the
//! backtracking baseline as a multiset of bindings, produce
//! byte-identical output at any partition count, and yield exact
//! prefixes of the ungoverned answer when a governor trips.

use kgq_core::govern::{Budget, Completion, Governor, Interrupt};
use kgq_core::parallel::set_threads;
use kgq_rdf::bgp::{Bgp, Binding};
use kgq_rdf::{lftj, TripleStore};
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

/// Canonical multiset form: each binding as a sorted assoc list, the
/// whole answer sorted.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The WCO join and the backtracking oracle agree on every random
    /// store × BGP pair, compared as multisets of bindings.
    #[test]
    fn lftj_matches_backtracking_baseline(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..6),
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let fast = canon(lftj::solve(&st, &bgp).bindings());
        let slow = canon(bgp.solve_baseline(&st));
        prop_assert_eq!(fast, slow);
    }

    /// Partitioned evaluation is byte-identical at 1, 2 and 4 chunks:
    /// same rows, same order.
    #[test]
    fn partitioning_is_deterministic(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..5),
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let one = lftj::solve_planned(&st, &bgp, &lftj::plan(&st, &bgp), 1);
        for chunks in [2usize, 4] {
            let many = lftj::solve_planned(&st, &bgp, &lftj::plan(&st, &bgp), chunks);
            prop_assert_eq!(&one, &many, "chunks = {}", chunks);
        }
    }

    /// A tripped result budget yields an exact prefix of the ungoverned
    /// row stream; an untripped one yields the identical complete answer.
    #[test]
    fn governed_runs_are_exact_prefixes(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..5),
        limit in 0usize..12,
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let full = lftj::solve(&st, &bgp);
        let gov = Governor::new(&Budget::unlimited().with_max_results(limit as u64));
        let got = lftj::solve_governed(&st, &bgp, &gov)
            .expect("governed run must not error");
        match got.completion {
            Completion::Complete => {
                prop_assert_eq!(&got.value, &full);
                prop_assert!(full.rows.len() <= limit);
            }
            Completion::Partial(_) => {
                prop_assert!(got.value.rows.len() <= limit);
                prop_assert_eq!(
                    &got.value.rows[..],
                    &full.rows[..got.value.rows.len()],
                    "partial rows must be a prefix of the full answer"
                );
            }
        }
    }

    /// A tripped step budget keeps the rows computed before the trip:
    /// at 1, 2 and 4 chunks they are an exact prefix of the full answer.
    #[test]
    fn step_tripped_runs_are_exact_prefixes(
        triples in proptest::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..40),
        patterns in proptest::collection::vec(pattern(), 1..5),
        steps in 1u64..64,
    ) {
        let (st, bgp) = setup(&triples, &patterns);
        let full = lftj::solve(&st, &bgp);
        for threads in [1usize, 2, 4] {
            set_threads(threads);
            let gov = Governor::new(&Budget::unlimited().with_max_steps(steps));
            let got = lftj::solve_governed(&st, &bgp, &gov)
                .expect("governed run must not error");
            match got.completion {
                Completion::Complete => prop_assert_eq!(&got.value, &full),
                Completion::Partial(why) => {
                    prop_assert_eq!(why, Interrupt::StepBudget);
                    prop_assert_eq!(
                        &got.value.rows[..],
                        &full.rows[..got.value.rows.len()],
                        "threads = {}", threads
                    );
                }
            }
        }
    }
}
