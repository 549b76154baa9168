//! Property-based tests for the scale path (`kgq_core::scale`): on
//! arbitrary random graphs and label-only expressions, every RPQ route —
//! the product `Evaluator`, its per-source `*_sequential` oracles, and
//! the sharded 64-lane sweep over raw and over packed adjacency — must
//! return byte-identical, unsorted output at every chunk count, and
//! every result-budgeted run must be the exact prefix of that output.

use kgq_core::eval::Evaluator;
use kgq_core::govern::{Budget, Governed, Governor};
use kgq_core::model::LabeledView;
use kgq_core::parser::parse_expr;
use kgq_core::scale::{LabelAdjacency, LabelDfa, PackedAdjacency, RawAdjacency, ScaleEvaluator};
use kgq_graph::{LabelIndex, LabeledGraph, NodeId, PackedLabelIndex};
use proptest::prelude::*;

const EDGE_LABELS: [&str; 3] = ["a", "b", "c"];

/// Label-only expressions over the three-letter alphabet, covering
/// concatenation, alternation, star and the inverse step.
const EXPRS: [&str; 6] = ["a", "a/b", "(a+b)*/c", "a/b^-", "c*", "(a+b^-)/c*"];

/// Random label-only expressions: labels and their inverses, nested
/// under concatenation, alternation and star.
fn expr_strategy() -> impl Strategy<Value = String> {
    let leaf = (0..EDGE_LABELS.len(), any::<bool>())
        .prop_map(|(l, inv)| format!("{}{}", EDGE_LABELS[l], if inv { "^-" } else { "" }));
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("{x}/{y}")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x}+{y})")),
            inner.prop_map(|x| format!("({x})*")),
        ]
    })
}

fn as_u32(nodes: &[NodeId]) -> Vec<u32> {
    nodes.iter().map(|v| v.0).collect()
}

fn as_u32_pairs(pairs: &[(NodeId, NodeId)]) -> Vec<(u32, u32)> {
    pairs.iter().map(|&(a, b)| (a.0, b.0)).collect()
}

/// One scale route's pairs and starts.
type Answers = (Governed<Vec<(u32, u32)>>, Governed<Vec<u32>>);

/// One adjacency's scale route: pairs and starts over every source,
/// unbudgeted or under a result budget.
trait Routed {
    fn route(&self, dfa: &LabelDfa, n: u32, chunks: usize, max_results: Option<u64>) -> Answers;
}

impl<A: LabelAdjacency> Routed for A {
    fn route(&self, dfa: &LabelDfa, n: u32, chunks: usize, max_results: Option<u64>) -> Answers {
        let ev = ScaleEvaluator::new(self, dfa.clone());
        let Some(k) = max_results else {
            return (
                Governed::complete(ev.pairs(0..n, chunks)),
                Governed::complete(ev.matching_starts(0..n, chunks)),
            );
        };
        let gov = || Governor::new(&Budget::unlimited().with_max_results(k));
        (
            ev.pairs_governed(0..n, chunks, &gov()).unwrap(),
            ev.matching_starts_governed(0..n, chunks, &gov()).unwrap(),
        )
    }
}

#[derive(Clone, Debug)]
struct Spec {
    n: usize,
    edges: Vec<(usize, usize, usize)>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (2usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0..EDGE_LABELS.len()), 0..100)
            .prop_map(move |edges| Spec { n, edges })
    })
}

fn build(spec: &Spec) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    let nodes: Vec<NodeId> = (0..spec.n)
        .map(|i| g.add_node(&format!("n{i}"), "v").unwrap())
        .collect();
    for (i, &(s, d, l)) in spec.edges.iter().enumerate() {
        g.add_edge(&format!("e{i}"), nodes[s], nodes[d], EDGE_LABELS[l])
            .unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw and packed adjacency produce byte-identical `pairs()` and
    /// `matching_starts()` at chunk counts 1, 2 and 4, and the pair
    /// set equals the product-automaton oracle.
    #[test]
    fn scale_sweep_is_deterministic_and_correct(
        spec in spec_strategy(),
        expr_i in 0usize..EXPRS.len(),
    ) {
        let mut g = build(&spec);
        let idx = LabelIndex::build(&g);
        let packed = PackedLabelIndex::from_labeled(&g).unwrap();
        let n = spec.n as u32;
        let src = EXPRS[expr_i];
        let expr = parse_expr(src, g.consts_mut()).unwrap();
        let dfa = LabelDfa::compile(&expr, |s| idx.dense_id(s)).unwrap();

        let raw = RawAdjacency(&idx);
        let pview = packed.view();
        let pk = PackedAdjacency(pview);
        let ev_raw = ScaleEvaluator::new(&raw, dfa.clone());
        let ev_pk = ScaleEvaluator::new(&pk, dfa);

        let base_pairs = ev_raw.pairs(0..n, 1);
        let base_starts = ev_raw.matching_starts(0..n, 1);
        for chunks in [1usize, 2, 4] {
            prop_assert_eq!(
                &base_pairs, &ev_raw.pairs(0..n, chunks),
                "raw pairs chunks={} expr={}", chunks, src);
            prop_assert_eq!(
                &base_pairs, &ev_pk.pairs(0..n, chunks),
                "packed pairs chunks={} expr={}", chunks, src);
            prop_assert_eq!(
                &base_starts, &ev_raw.matching_starts(0..n, chunks),
                "raw starts chunks={} expr={}", chunks, src);
            prop_assert_eq!(
                &base_starts, &ev_pk.matching_starts(0..n, chunks),
                "packed starts chunks={} expr={}", chunks, src);
        }

        // The product route, unsorted: same bytes, pairs and starts.
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        prop_assert_eq!(&base_pairs, &as_u32_pairs(&ev.pairs()), "product pairs on {}", src);
        prop_assert_eq!(&base_starts, &as_u32(&ev.matching_starts()), "product starts on {}", src);
    }

    /// Random label-only expressions (inverse steps, nested stars and
    /// alternations): the product route, its sequential oracles and the
    /// scale sweep over raw and packed adjacency print the same unsorted
    /// answers at chunks 1, 2 and 4, and a result budget of `k` cuts
    /// every route to the same exact `k`-prefix.
    #[test]
    fn every_rpq_route_agrees_byte_for_byte(
        spec in spec_strategy(),
        src in expr_strategy(),
        k in 0u64..40,
    ) {
        let mut g = build(&spec);
        let idx = LabelIndex::build(&g);
        let packed = PackedLabelIndex::from_labeled(&g).unwrap();
        let n = spec.n as u32;
        let expr = parse_expr(&src, g.consts_mut()).unwrap();
        let Ok(dfa) = LabelDfa::compile(&expr, |s| idx.dense_id(s)) else {
            return Ok(());
        };
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let pairs = as_u32_pairs(&ev.pairs());
        let starts = as_u32(&ev.matching_starts());
        prop_assert_eq!(&pairs, &as_u32_pairs(&ev.pairs_sequential()), "{}", src);
        prop_assert_eq!(&starts, &as_u32(&ev.matching_starts_sequential()), "{}", src);

        let capped = || Governor::new(&Budget::unlimited().with_max_results(k));
        let prefix = |full: &[(u32, u32)], got: Governed<Vec<(u32, u32)>>| {
            got.value == full[..full.len().min(k as usize)]
                && got.is_partial() == (full.len() as u64 > k)
        };
        let product = ev.pairs_governed(&capped()).unwrap().map(|p| as_u32_pairs(&p));
        prop_assert!(prefix(&pairs, product), "product pairs k={} on {}", k, src);
        let got = ev.matching_starts_governed(&capped()).unwrap().map(|s| as_u32(&s));
        prop_assert_eq!(&got.value[..], &starts[..starts.len().min(k as usize)], "{}", src);
        prop_assert_eq!(got.is_partial(), starts.len() as u64 > k, "{}", src);

        let raw = RawAdjacency(&idx);
        let pk = PackedAdjacency(packed.view());
        for (name, adj) in [("raw", &raw as &dyn Routed), ("packed", &pk)] {
            for chunks in [1usize, 2, 4] {
                let at = format!("{name} chunks={chunks} k={k} on {src}");
                let (p, st) = adj.route(&dfa, n, chunks, None);
                prop_assert_eq!(&p.value, &pairs, "{}", at);
                prop_assert_eq!(&st.value, &starts, "{}", at);
                let (p, st) = adj.route(&dfa, n, chunks, Some(k));
                prop_assert!(prefix(&pairs, p), "{}", at);
                prop_assert_eq!(&st.value[..], &starts[..starts.len().min(k as usize)], "{}", at);
                prop_assert_eq!(st.is_partial(), starts.len() as u64 > k, "{}", at);
            }
        }
    }

    /// A partial window of sources equals the matching slice of the
    /// full scan: sharding never changes per-source answers.
    #[test]
    fn source_windows_agree_with_full_scans(
        spec in spec_strategy(),
        expr_i in 0usize..EXPRS.len(),
        lo in 0u32..20,
        span in 1u32..20,
    ) {
        let mut g = build(&spec);
        let idx = LabelIndex::build(&g);
        let n = spec.n as u32;
        let expr = parse_expr(EXPRS[expr_i], g.consts_mut()).unwrap();
        let dfa = LabelDfa::compile(&expr, |s| idx.dense_id(s)).unwrap();
        let raw = RawAdjacency(&idx);
        let ev = ScaleEvaluator::new(&raw, dfa);
        let lo = lo.min(n);
        let hi = lo.saturating_add(span).min(n);
        let window = ev.pairs(lo..hi, 2);
        let full = ev.pairs(0..n, 1);
        let expect: Vec<(u32, u32)> = full
            .into_iter()
            .filter(|&(s, _)| s >= lo && s < hi)
            .collect();
        prop_assert_eq!(window, expect);
    }
}
