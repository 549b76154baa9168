//! Property-based agreement tests for the static analyzer: on random ER
//! and BA graphs, an `empty` verdict must always agree with actual
//! evaluation (at every thread count), schema-based transition pruning
//! must never change answers, and plan advice must never change output
//! bytes.

use kgq_core::analyze::{analyze_expr, pruned_min};
use kgq_core::automata::Nfa;
use kgq_core::eval::Evaluator;
use kgq_core::model::LabeledView;
use kgq_core::parallel::set_threads;
use kgq_core::parser::parse_expr;
use kgq_core::product::Product;
use kgq_graph::generate::{barabasi_albert, gnm_labeled};
use kgq_graph::schema::SchemaSummary;
use kgq_graph::LabeledGraph;
use proptest::prelude::*;
use std::sync::Arc;

/// Expression pool mixing live labels with `ghost`/`phantom` (absent
/// from every generated graph) so emptiness verdicts of both polarities
/// are exercised, plus contradictions and dead star bodies.
const ER_EXPRS: [&str; 8] = [
    "(p+q)*",
    "p/q^-",
    "ghost",
    "ghost/p",
    "(ghost)*/q",
    "{p & !p}",
    "?{a & b}/p",
    "(p+ghost)*",
];
const BA_EXPRS: [&str; 5] = [
    "(link)*",
    "link/link^-",
    "phantom/link",
    "?v/(link+phantom)*",
    "?phantom",
];

#[derive(Clone, Debug)]
enum Spec {
    Er {
        n: usize,
        m: usize,
        seed: u64,
        expr: usize,
    },
    Ba {
        n: usize,
        seed: u64,
        expr: usize,
    },
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (3usize..14, 2usize..30, 0u64..1000, 0..ER_EXPRS.len())
            .prop_map(|(n, m, seed, expr)| Spec::Er { n, m, seed, expr }),
        (4usize..14, 0u64..1000, 0..BA_EXPRS.len()).prop_map(|(n, seed, expr)| Spec::Ba {
            n,
            seed,
            expr
        }),
    ]
}

fn build(spec: &Spec) -> (LabeledGraph, kgq_core::PathExpr) {
    match *spec {
        Spec::Er { n, m, seed, expr } => {
            let mut g = gnm_labeled(n, m, &["a", "b"], &["p", "q"], seed);
            let e = parse_expr(ER_EXPRS[expr], g.consts_mut()).unwrap();
            (g, e)
        }
        Spec::Ba { n, seed, expr } => {
            let mut g = barabasi_albert(n, 2, "v", "link", seed);
            let e = parse_expr(BA_EXPRS[expr], g.consts_mut()).unwrap();
            (g, e)
        }
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn empty_verdict_agrees_with_evaluation_at_every_thread_count(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let schema = SchemaSummary::from_labeled(&g);
        let report = analyze_expr(&expr, &schema, None);
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        for &t in &THREAD_COUNTS {
            set_threads(t);
            let pairs = ev.pairs();
            if report.is_provably_empty() {
                // Deny[empty-language] is a *proof*: zero pairs, always.
                prop_assert!(pairs.is_empty(), "threads={} verdict=empty but {} pairs", t, pairs.len());
            }
            // The language facts agree with the verdict flag.
            prop_assert_eq!(report.language.unwrap().empty, report.is_provably_empty());
        }
    }

    #[test]
    fn unsat_pruning_never_changes_results(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let schema = SchemaSummary::from_labeled(&g);
        let view = LabeledView::new(&g);
        // Reference: the full (unpruned) minimal automaton, as the cache
        // would compile it.
        let full = Nfa::compile_min(&expr);
        let reference =
            Evaluator::from_product(Arc::new(Product::build(&view, &full.nfa))).pairs_sequential();
        // Candidate: transitions with provably unsatisfiable guards removed.
        let pruned = pruned_min(&expr, &schema);
        let got =
            Evaluator::from_product(Arc::new(Product::build(&view, &pruned.nfa))).pairs_sequential();
        prop_assert_eq!(got, reference);
    }
}
