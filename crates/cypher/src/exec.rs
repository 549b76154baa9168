//! Query execution: backtracking pattern matching over a property graph.
//!
//! Semantics follow Cypher's conventions:
//!
//! * **homomorphic nodes, isomorphic relationships** — a node may be
//!   bound by several variables, but no edge is used twice within one
//!   solution (re-using the *same* relationship variable is the
//!   exception: it must re-bind the identical edge);
//! * `WHERE` comparisons against a missing property are not satisfied
//!   (Cypher's NULL semantics: neither `=` nor `<>` is true).
//!
//! Governed execution ([`execute_governed`]) threads a
//! [`kgq_core::govern::Governor`] through the whole pipeline: prefilter
//! compilation, the prefilter reachability scan, and every step of the
//! backtracking search, which stops at a budget boundary and returns the
//! rows found so far as a typed partial result.

use crate::ast::{CmpOp, Direction, PathPattern, Query, ReturnItem};
use kgq_core::cache::QueryCache;
use kgq_core::expr::{PathExpr, Test};
use kgq_core::govern::{isolate, EvalError, Governed, Governor, Interrupt, Ticker};
use kgq_core::model::PropertyView;
use kgq_graph::{EdgeId, NodeId, PropertyGraph};
use std::collections::HashMap;

/// One result row: a string per `RETURN` item (node/edge identifiers for
/// variables, property values — empty when absent — for lookups).
pub type Row = Vec<String>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Binding {
    Node(NodeId),
    Edge(EdgeId),
}

struct Ctx<'a> {
    g: &'a PropertyGraph,
    query: &'a Query,
    env: HashMap<String, Binding>,
    used_edges: Vec<EdgeId>,
    out: Vec<Row>,
    /// Per-pattern sorted lists of admissible start nodes (from the
    /// compiled product's bit-parallel `matching_starts` scan); `None`
    /// means no prefilter for that pattern. Sorted `Vec` + binary search
    /// beats a `HashSet` here: the lists are built once, probed many
    /// times, and stay cache-resident.
    start_filter: Vec<Option<Vec<NodeId>>>,
    /// Step accounting for governed execution (a no-op ticker otherwise).
    ticker: Ticker<'a>,
    /// Result accounting for governed execution.
    gov: Option<&'a Governor>,
}

/// Executes a parsed query against a property graph.
///
/// Returns one row per solution, in a deterministic (search) order.
/// Unknown variables in `WHERE`/`RETURN` simply never match / produce
/// empty strings — mirroring the forgiving behavior of the text format.
pub fn execute(g: &PropertyGraph, query: &Query) -> Vec<Row> {
    let filters = vec![None; query.patterns.len()];
    execute_with_filters(g, query, filters)
}

/// How a pattern chain translates into a path expression for pruning.
enum Prefilter {
    /// Some element is unlabeled — no sound expression, skip pruning.
    NotApplicable,
    /// A label string absent from the graph's constant universe: the
    /// pattern (and hence the query) cannot match at all.
    Empty,
    /// The chain as a path expression; its `matching_starts` set
    /// over-approximates the pattern's start nodes.
    Expr(PathExpr),
}

/// Translates a fully labeled pattern chain
/// `(:l0)-[:e1]->(:l1)…` into `?l0/e1/?l1/…`. Relationship uniqueness
/// and cross-pattern variable joins make actual Cypher matches a
/// *subset* of the expression's answers, so pruning start candidates to
/// `matching_starts` of this expression never loses a solution.
fn pattern_prefilter(g: &PropertyGraph, pattern: &PathPattern) -> Prefilter {
    let all_labeled = pattern.nodes.iter().all(|n| n.label.is_some())
        && pattern.rels.iter().all(|r| r.label.is_some());
    if !all_labeled {
        return Prefilter::NotApplicable;
    }
    let sym = |label: &Option<String>| label.as_deref().and_then(|l| g.labeled().sym(l));
    let Some(first) = sym(&pattern.nodes[0].label) else {
        return Prefilter::Empty;
    };
    let mut expr = PathExpr::NodeTest(Test::Label(first));
    for (rel, node) in pattern.rels.iter().zip(&pattern.nodes[1..]) {
        let (Some(rl), Some(nl)) = (sym(&rel.label), sym(&node.label)) else {
            return Prefilter::Empty;
        };
        let step = match rel.direction {
            Direction::Right => PathExpr::Forward(Test::Label(rl)),
            Direction::Left => PathExpr::Backward(Test::Label(rl)),
        };
        expr = PathExpr::Concat(Box::new(expr), Box::new(step));
        expr = PathExpr::Concat(
            Box::new(expr),
            Box::new(PathExpr::NodeTest(Test::Label(nl))),
        );
    }
    Prefilter::Expr(expr)
}

/// [`execute_governed`] under an unlimited governor: the prefiltered,
/// cache-backed executor for callers without a budget. Results are
/// identical to [`execute`].
pub fn execute_cached(g: &PropertyGraph, query: &Query, cache: &QueryCache) -> Vec<Row> {
    match execute_governed(g, query, cache, &Governor::unlimited()) {
        Ok(res) => res.value,
        Err(e) => panic!("ungoverned Cypher execution failed: {e}"),
    }
}

fn execute_with_filters(
    g: &PropertyGraph,
    query: &Query,
    start_filter: Vec<Option<Vec<NodeId>>>,
) -> Vec<Row> {
    let mut ctx = Ctx {
        g,
        query,
        env: HashMap::new(),
        used_edges: Vec::new(),
        out: Vec::new(),
        start_filter,
        ticker: Ticker::none(),
        gov: None,
    };
    match match_pattern(&mut ctx, 0) {
        Ok(()) => ctx.out,
        Err(i) => unreachable!("ungoverned match interrupted: {i}"),
    }
}

/// Executes a parsed query under `gov`, pruning each fully labeled
/// pattern chain through `cache`: the chain is compiled to a path
/// expression (reusing a cached graph × NFA product when the graph
/// generation matches) and start candidates are restricted to its
/// `matching_starts` set; chains with unlabeled elements fall back to
/// plain [`execute`] behavior. Prefilter compilation, the prefilter
/// scans, and the backtracking search all run under `gov`. Exhaustion
/// mid-search returns the rows found so far as a
/// [`kgq_core::govern::Completion::Partial`] result (rows appear in the
/// same deterministic search order as [`execute`], so the partial value
/// is a prefix of the full row list); worker panics surface as
/// [`EvalError::Panic`].
pub fn execute_governed(
    g: &PropertyGraph,
    query: &Query,
    cache: &QueryCache,
    gov: &Governor,
) -> Result<Governed<Vec<Row>>, EvalError> {
    // Static analysis first: a provably-empty query (unknown label,
    // contradictory WHERE, …) completes instantly without compiling
    // anything or charging the governor, and the skipped compilation is
    // visible in the cache stats.
    let report = crate::analyze::analyze_query(g, query, None);
    if report.is_provably_empty() {
        cache.note_short_circuit();
        return Ok(Governed::complete(Vec::new()));
    }
    let generation = g.generation();
    let view = PropertyView::new(g);
    let mut filters: Vec<Option<Vec<NodeId>>> = Vec::with_capacity(query.patterns.len());
    for pattern in &query.patterns {
        match pattern_prefilter(g, pattern) {
            Prefilter::NotApplicable => filters.push(None),
            Prefilter::Empty => return Ok(Governed::complete(Vec::new())),
            Prefilter::Expr(e) => {
                let compiled = match cache.get_or_compile_governed(&view, generation, &e, gov) {
                    Ok(c) => c,
                    Err(EvalError::Interrupted(why)) => {
                        return Ok(Governed::partial(Vec::new(), why))
                    }
                    Err(e) => return Err(e),
                };
                // `matching_starts` runs on the 64-source bit-parallel
                // reachability kernel, so the prefilter costs one sweep
                // over the product per 64 candidate nodes.
                // The prefilter is only sound when complete — a partial
                // start set would prune real solutions. The governor is
                // sticky, so after a trip the search below stops at its
                // first tick anyway. Unmetered: prefilter start nodes are
                // not user-visible rows, so they must not consume the
                // caller's result budget.
                let starts = compiled
                    .evaluator()
                    .matching_starts_governed_unmetered(gov)?;
                if starts.is_partial() {
                    return Ok(Governed::partial(
                        Vec::new(),
                        match starts.completion {
                            kgq_core::govern::Completion::Partial(why) => why,
                            kgq_core::govern::Completion::Complete => unreachable!(),
                        },
                    ));
                }
                let mut starts = starts.value;
                starts.sort_unstable();
                if starts.is_empty() {
                    // MATCH patterns are conjunctive: one unmatchable
                    // chain empties the whole result.
                    return Ok(Governed::complete(Vec::new()));
                }
                filters.push(Some(starts));
            }
        }
    }
    isolate(|| {
        #[cfg(feature = "fault-injection")]
        kgq_core::govern::fault::hit("cypher::match");
        let mut ctx = Ctx {
            g,
            query,
            env: HashMap::new(),
            used_edges: Vec::new(),
            out: Vec::new(),
            start_filter: filters,
            ticker: Ticker::new(gov),
            gov: Some(gov),
        };
        Ok(match match_pattern(&mut ctx, 0) {
            Ok(()) => Governed::complete(ctx.out),
            Err(why) => Governed::partial(ctx.out, why),
        })
    })
}

fn node_label_ok(g: &PropertyGraph, n: NodeId, label: &Option<String>) -> bool {
    match label {
        None => true,
        Some(l) => g.labeled().label_name(g.labeled().node_label(n)) == l,
    }
}

fn edge_label_ok(g: &PropertyGraph, e: EdgeId, label: &Option<String>) -> bool {
    match label {
        None => true,
        Some(l) => g.labeled().label_name(g.labeled().edge_label(e)) == l,
    }
}

fn bind_node(ctx: &mut Ctx<'_>, var: &Option<String>, n: NodeId) -> Result<Option<String>, ()> {
    match var {
        None => Ok(None),
        Some(v) => match ctx.env.get(v) {
            Some(Binding::Node(bound)) if *bound == n => Ok(None),
            Some(_) => Err(()),
            None => {
                ctx.env.insert(v.clone(), Binding::Node(n));
                Ok(Some(v.clone()))
            }
        },
    }
}

fn match_pattern(ctx: &mut Ctx<'_>, pat_idx: usize) -> Result<(), Interrupt> {
    if pat_idx == ctx.query.patterns.len() {
        if where_holds(ctx) {
            if let Some(gov) = ctx.gov {
                gov.charge_results(1)?;
            }
            let row = project(ctx);
            ctx.out.push(row);
        }
        return Ok(());
    }
    let pattern = &ctx.query.patterns[pat_idx];
    let first = &pattern.nodes[0];
    // Starting candidates: the pre-bound node, or all label-matching nodes.
    let candidates: Vec<NodeId> = match first.var.as_ref().and_then(|v| ctx.env.get(v)) {
        Some(Binding::Node(n)) => vec![*n],
        Some(Binding::Edge(_)) => return Ok(()),
        None => {
            let filter = ctx.start_filter.get(pat_idx).and_then(|f| f.as_ref());
            ctx.g
                .labeled()
                .base()
                .nodes()
                .filter(|&n| node_label_ok(ctx.g, n, &first.label))
                .filter(|n| filter.is_none_or(|f| f.binary_search(n).is_ok()))
                .collect()
        }
    };
    for n in candidates {
        ctx.ticker.tick()?;
        if !node_label_ok(ctx.g, n, &first.label) {
            continue;
        }
        let undo = bind_node(ctx, &first.var, n);
        if let Ok(undo) = undo {
            match_step(ctx, pat_idx, 0, n)?;
            if let Some(v) = undo {
                ctx.env.remove(&v);
            }
        }
    }
    Ok(())
}

fn match_step(
    ctx: &mut Ctx<'_>,
    pat_idx: usize,
    rel_idx: usize,
    at: NodeId,
) -> Result<(), Interrupt> {
    let pattern = &ctx.query.patterns[pat_idx];
    if rel_idx == pattern.rels.len() {
        return match_pattern(ctx, pat_idx + 1);
    }
    let rel = pattern.rels[rel_idx].clone();
    let next_node = pattern.nodes[rel_idx + 1].clone();
    // Candidate edges incident to `at` in the right direction.
    let base = ctx.g.labeled().base();
    let candidates: Vec<(EdgeId, NodeId)> = match rel.direction {
        Direction::Right => base
            .out_edges(at)
            .iter()
            .map(|&e| (e, base.target(e)))
            .collect(),
        Direction::Left => base
            .in_edges(at)
            .iter()
            .map(|&e| (e, base.source(e)))
            .collect(),
    };
    for (e, m) in candidates {
        ctx.ticker.tick()?;
        if !edge_label_ok(ctx.g, e, &rel.label) {
            continue;
        }
        if !node_label_ok(ctx.g, m, &next_node.label) {
            continue;
        }
        // Relationship bindings and uniqueness.
        let mut bound_var_here = None;
        match rel.var.as_ref().map(|v| (v, ctx.env.get(v))) {
            Some((_, Some(Binding::Edge(bound)))) => {
                // Re-using a relationship variable: must be the same edge
                // (uniqueness does not apply to itself).
                if *bound != e {
                    continue;
                }
            }
            Some((_, Some(Binding::Node(_)))) => continue,
            Some((v, None)) => {
                if ctx.used_edges.contains(&e) {
                    continue;
                }
                ctx.env.insert(v.clone(), Binding::Edge(e));
                bound_var_here = Some(v.clone());
                ctx.used_edges.push(e);
            }
            None => {
                if ctx.used_edges.contains(&e) {
                    continue;
                }
                ctx.used_edges.push(e);
            }
        }
        let track_edge = bound_var_here.is_some() || rel.var.is_none();
        if let Ok(undo_node) = bind_node(ctx, &next_node.var, m) {
            // On interrupt the whole search is abandoned and `ctx.out`
            // returned as-is, so skipping the undo bookkeeping is fine.
            match_step(ctx, pat_idx, rel_idx + 1, m)?;
            if let Some(v) = undo_node {
                ctx.env.remove(&v);
            }
        }
        if let Some(v) = bound_var_here {
            ctx.env.remove(&v);
        }
        if track_edge {
            ctx.used_edges.pop();
        }
    }
    Ok(())
}

fn prop_of(ctx: &Ctx<'_>, var: &str, prop: &str) -> Option<String> {
    match ctx.env.get(var)? {
        Binding::Node(n) => ctx.g.node_prop_str(*n, prop).map(str::to_owned),
        Binding::Edge(e) => ctx.g.edge_prop_str(*e, prop).map(str::to_owned),
    }
}

fn where_holds(ctx: &Ctx<'_>) -> bool {
    ctx.query.conditions.iter().all(|c| {
        match prop_of(ctx, &c.var, &c.prop) {
            None => false, // NULL comparisons are never true
            Some(v) => match c.op {
                CmpOp::Eq => v == c.value,
                CmpOp::Ne => v != c.value,
            },
        }
    })
}

fn project(ctx: &Ctx<'_>) -> Row {
    ctx.query
        .returns
        .iter()
        .map(|item| match item {
            ReturnItem::Var(v) => match ctx.env.get(v) {
                Some(Binding::Node(n)) => ctx.g.labeled().node_name(*n).to_owned(),
                Some(Binding::Edge(e)) => ctx.g.labeled().edge_name(*e).to_owned(),
                None => String::new(),
            },
            ReturnItem::Prop(v, p) => prop_of(ctx, v, p).unwrap_or_default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use kgq_graph::figures::figure2_property;

    fn run(query: &str) -> Vec<Row> {
        let g = figure2_property();
        let q = parse_query(query).unwrap();
        let mut rows = execute(&g, &q);
        rows.sort();
        rows
    }

    #[test]
    fn single_node_pattern_by_label() {
        let rows = run("MATCH (p:person) RETURN p");
        assert_eq!(rows, vec![vec!["n1"], vec!["n4"], vec!["n8"]]);
    }

    #[test]
    fn relationship_pattern_with_direction() {
        let rows = run("MATCH (p:person)-[:rides]->(b:bus) RETURN p, b");
        assert_eq!(rows, vec![vec!["n1", "n3"], vec!["n4", "n3"]]);
        // Reversed arrow: same answers from the bus side.
        let rows = run("MATCH (b:bus)<-[:rides]-(p:person) RETURN p, b");
        assert_eq!(rows, vec![vec!["n1", "n3"], vec!["n4", "n3"]]);
    }

    #[test]
    fn multi_pattern_join_finds_exposure() {
        // The paper's expression (2) as a Cypher-style query.
        let rows = run(
            "MATCH (p:person)-[:rides]->(b:bus), (i:infected)-[:rides]->(b) \
             RETURN p, i",
        );
        assert_eq!(rows, vec![vec!["n1", "n2"], vec!["n4", "n2"]]);
    }

    #[test]
    fn where_filters_on_node_and_edge_properties() {
        let rows = run("MATCH (p:person) WHERE p.age = '33' RETURN p.name");
        assert_eq!(rows, vec![vec!["Julia"]]);
        let rows = run("MATCH (p)-[r:rides]->(b:bus) WHERE r.date <> '3/3/21' RETURN p");
        // e1 (n1, 3/3/21) is excluded; e2 (n2) and e3 (n4) survive.
        assert_eq!(rows, vec![vec!["n2"], vec!["n4"]]);
    }

    #[test]
    fn missing_property_fails_both_operators() {
        // The bus has no age: neither = nor <> matches (NULL semantics).
        assert!(run("MATCH (b:bus) WHERE b.age = '1' RETURN b").is_empty());
        assert!(run("MATCH (b:bus) WHERE b.age <> '1' RETURN b").is_empty());
    }

    #[test]
    fn relationship_uniqueness_within_a_match() {
        // Two co-rider patterns over the same bus: the two rides edges
        // must be distinct, so p <> q pairs only (no self-pairs via the
        // same edge).
        let rows = run("MATCH (p)-[:rides]->(b:bus)<-[:rides]-(q) RETURN p, q");
        for row in &rows {
            assert_ne!(row[0], row[1], "same edge reused for both hops");
        }
        // n1/n2, n1/n4, n2/n4 in both orders = 6 rows.
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn repeated_relationship_variable_rebinds_same_edge() {
        let rows = run("MATCH (p)-[r:rides]->(b), (p)-[r]->(b) RETURN p, r");
        // Each rides edge matches once (r forced equal across patterns).
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn node_homomorphism_is_allowed() {
        // The same node can play two roles.
        let rows = run("MATCH (a:person), (b:person) RETURN a, b");
        assert_eq!(rows.len(), 9); // 3 × 3 including a = b
    }

    #[test]
    fn property_projection_of_missing_value_is_empty() {
        let rows = run("MATCH (b:bus) RETURN b, b.name");
        assert_eq!(rows, vec![vec!["n3".to_owned(), String::new()]]);
    }

    #[test]
    fn anonymous_patterns_work() {
        let rows = run("MATCH (:company)-[:owns]->(b) RETURN b");
        assert_eq!(rows, vec![vec!["n3"]]);
    }

    #[test]
    fn cached_execution_matches_plain_execution() {
        let g = figure2_property();
        let cache = QueryCache::new();
        for query in [
            "MATCH (p:person) RETURN p",
            "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b",
            "MATCH (b:bus)<-[:rides]-(p:person) RETURN p, b",
            "MATCH (p:person)-[:rides]->(b:bus), (i:infected)-[:rides]->(b) RETURN p, i",
            "MATCH (p)-[:rides]->(b:bus)<-[:rides]-(q) RETURN p, q",
            "MATCH (p:person) WHERE p.age = '33' RETURN p.name",
            "MATCH (:company)-[:owns]->(b) RETURN b",
        ] {
            let q = parse_query(query).unwrap();
            assert_eq!(execute_cached(&g, &q, &cache), execute(&g, &q), "{query}");
        }
    }

    #[test]
    fn cached_execution_reuses_compiled_patterns() {
        let g = figure2_property();
        let cache = QueryCache::new();
        let q = parse_query("MATCH (p:person)-[:rides]->(b:bus) RETURN p, b").unwrap();
        execute_cached(&g, &q, &cache);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        execute_cached(&g, &q, &cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn unknown_label_short_circuits_to_empty() {
        let g = figure2_property();
        let cache = QueryCache::new();
        let q = parse_query("MATCH (p:ghost)-[:rides]->(b:bus) RETURN p").unwrap();
        assert!(execute_cached(&g, &q, &cache).is_empty());
        // Nothing was compiled: the label is not even in the universe.
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn mutation_invalidates_cached_patterns() {
        let mut g = figure2_property();
        let cache = QueryCache::new();
        let q = parse_query("MATCH (p:person)-[:rides]->(b:bus) RETURN p, b").unwrap();
        let before = execute_cached(&g, &q, &cache);
        let p9 = g.add_node("n9", "person").unwrap();
        let bus = g.labeled().node_named("n3").unwrap();
        g.add_edge("e9", p9, bus, "rides").unwrap();
        let after = execute_cached(&g, &q, &cache);
        // The new rider is visible: the stale product was not reused.
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(cache.misses(), 2);
    }
}
