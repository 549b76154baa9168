//! Property-based equivalence tests for the Cypher-style matcher on
//! arbitrary property graphs.

use kgq_core::cache::QueryCache;
use kgq_core::govern::{Budget, Completion, Governor, Interrupt};
use kgq_cypher::{execute, execute_governed, parse_query, Query, Row};
use kgq_graph::{NodeId, PropertyGraph};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const LABELS: [&str; 2] = ["person", "bus"];
const EDGE_LABELS: [&str; 2] = ["rides", "contact"];

#[derive(Clone, Debug)]
struct Spec {
    node_labels: Vec<usize>,
    edges: Vec<(usize, usize, usize)>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (1usize..8).prop_flat_map(|n| {
        (
            proptest::collection::vec(0..LABELS.len(), n),
            proptest::collection::vec((0..n, 0..n, 0..EDGE_LABELS.len()), 0..14),
        )
            .prop_map(|(node_labels, edges)| Spec { node_labels, edges })
    })
}

fn build(s: &Spec) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let nodes: Vec<NodeId> = s
        .node_labels
        .iter()
        .enumerate()
        .map(|(i, &l)| g.add_node(&format!("n{i}"), LABELS[l]).unwrap())
        .collect();
    for (i, &(a, b, l)) in s.edges.iter().enumerate() {
        g.add_edge(&format!("e{i}"), nodes[a], nodes[b], EDGE_LABELS[l])
            .unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_edge_pattern_matches_raw_edges(s in spec()) {
        let g = build(&s);
        let q = parse_query("MATCH (a:person)-[:rides]->(b) RETURN a, b").unwrap();
        let mut got: Vec<(String, String)> = execute(&g, &q)
            .into_iter()
            .map(|r| (r[0].clone(), r[1].clone()))
            .collect();
        got.sort();
        // Ground truth directly from the graph (per-edge, so parallel
        // edges yield duplicate pairs — matching does too).
        let lg = g.labeled();
        let person = lg.sym("person");
        let rides = lg.sym("rides");
        let mut expected: Vec<(String, String)> = lg
            .base()
            .edges()
            .filter(|&e| Some(lg.edge_label(e)) == rides)
            .filter(|&e| Some(lg.node_label(lg.base().source(e))) == person)
            .map(|e| {
                let (a, b) = lg.base().endpoints(e);
                (lg.node_name(a).to_owned(), lg.node_name(b).to_owned())
            })
            .collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn direction_reversal_is_an_involution(s in spec()) {
        let g = build(&s);
        let fwd = parse_query("MATCH (a)-[:contact]->(b) RETURN a, b").unwrap();
        let bwd = parse_query("MATCH (b)<-[:contact]-(a) RETURN a, b").unwrap();
        let mut f: Vec<_> = execute(&g, &fwd);
        let mut b: Vec<_> = execute(&g, &bwd);
        f.sort();
        b.sort();
        prop_assert_eq!(f, b);
    }

    #[test]
    fn two_hop_respects_edge_uniqueness(s in spec()) {
        let g = build(&s);
        let q = parse_query("MATCH (a)-[r:rides]->(b)<-[t:rides]-(c) RETURN r, t").unwrap();
        for row in execute(&g, &q) {
            prop_assert_ne!(&row[0], &row[1], "edge reused within one match");
        }
    }

    /// The partial contract on random graphs, at every step budget
    /// 1..=200 and every result budget 0..=5 or none.
    #[test]
    fn governed_rows_are_prefixes_of_the_full_rows(s in spec()) {
        let g = build(&s);
        // Each result budget rides beside a spread of step budgets, and
        // beside no step budget at all.
        let results_for = |i: u64| (i % 7 < 6).then_some(i % 7);
        let runs: Vec<_> = (1..=200u64)
            .map(|steps| (Some(steps), results_for(steps)))
            .chain((0..7).map(|i| (None, results_for(i))))
            .collect();
        for text in PATTERNS {
            let q = parse_query(text).unwrap();
            let full = execute(&g, &q);
            for &(steps, results) in &runs {
                check_partial_contract(&g, &q, &full, steps, results)?;
            }
        }
    }
}

/// One-, two- and three-hop patterns for the partial contract.
const PATTERNS: [&str; 3] = [
    "MATCH (a)-[:rides]->(b) RETURN a, b",
    "MATCH (a:person)-[r]->(b)<-[t]-(c) RETURN a, r, t, c",
    "MATCH (a)-[r]->(b)-[t]->(c)-[u]->(d) RETURN r, t, u, d",
];

/// Under a step and a result budget, the rows of `q` are a prefix of its
/// ungoverned rows `full`, tagged with the budget that tripped, and equal
/// to them when nothing tripped.
fn check_partial_contract(
    g: &PropertyGraph,
    q: &Query,
    full: &[Row],
    steps: Option<u64>,
    results: Option<u64>,
) -> Result<Completion, TestCaseError> {
    let text = format!("{q:?} at steps {steps:?}, results {results:?}");
    let mut budget = Budget::unlimited();
    if let Some(n) = steps {
        budget = budget.with_max_steps(n);
    }
    if let Some(n) = results {
        budget = budget.with_max_results(n);
    }
    let res = execute_governed(g, q, &QueryCache::new(), &Governor::new(&budget)).unwrap();
    let rows = &res.value;
    prop_assert!(rows.len() <= full.len(), "{}: more rows than execute", text);
    prop_assert_eq!(&rows[..], &full[..rows.len()], "{}: not a prefix", text);
    match res.completion {
        Completion::Complete => prop_assert_eq!(rows.len(), full.len(), "{}", text),
        Completion::Partial(Interrupt::ResultBudget) => {
            prop_assert_eq!(Some(rows.len() as u64), results, "{}", text)
        }
        Completion::Partial(Interrupt::StepBudget) => prop_assert!(steps.is_some(), "{}", text),
        Completion::Partial(why) => prop_assert!(false, "{}: unexpected {:?}", text, why),
    }
    Ok(res.completion)
}

/// Steps are charged in batches, so a step budget trips only once a
/// search has done a batch of work: fourteen self-loops give the
/// three-hop pattern 14 · 13 · 12 edge-distinct matches, enough to trip.
#[test]
fn step_budget_trips_a_long_search_with_a_prefix() {
    let g = build(&Spec {
        node_labels: vec![0],
        edges: vec![(0, 0, 0); 14],
    });
    for steps in [1, 50, 200] {
        let q = parse_query(PATTERNS[2]).unwrap();
        let full = execute(&g, &q);
        let why = check_partial_contract(&g, &q, &full, Some(steps), None).unwrap();
        assert_eq!(
            why,
            Completion::Partial(Interrupt::StepBudget),
            "steps {steps}"
        );
    }
}
