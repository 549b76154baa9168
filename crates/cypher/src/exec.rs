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
//! Governed execution ([`execute_governed`]) runs the same search as
//! [`execute`] under a [`kgq_core::govern::Governor`]: every step of the
//! backtracking search is charged, and the search stops at a budget
//! boundary and returns the rows found so far as a typed partial result.

use crate::ast::{CmpOp, Direction, Query, ReturnItem};
use kgq_core::cache::QueryCache;
use kgq_core::govern::{isolate, EvalError, Governed, Governor, Interrupt, Ticker};
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
    /// Step and result accounting for governed execution (a no-op
    /// ticker otherwise).
    ticker: Ticker<'a>,
}

/// Executes a parsed query against a property graph.
///
/// Returns one row per solution, in a deterministic (search) order.
/// Unknown variables in `WHERE`/`RETURN` simply never match / produce
/// empty strings — mirroring the forgiving behavior of the text format.
pub fn execute(g: &PropertyGraph, query: &Query) -> Vec<Row> {
    let rows = search(g, query, None);
    assert!(!rows.is_partial(), "ungoverned match interrupted");
    rows.value
}

/// Executes a parsed query under `gov`. The static analyzer runs first:
/// a provably empty query completes at once, without charging `gov`, and
/// is noted in `cache`'s short-circuit count. Otherwise the backtracking
/// search of [`execute`] runs with every step charged to `gov`.
/// Exhaustion mid-search returns the rows found so far as a
/// [`kgq_core::govern::Completion::Partial`] result (rows appear in the
/// same deterministic search order as [`execute`], so the partial value
/// is a prefix of the full row list); panics surface as
/// [`EvalError::Panic`].
pub fn execute_governed(
    g: &PropertyGraph,
    query: &Query,
    cache: &QueryCache,
    gov: &Governor,
) -> Result<Governed<Vec<Row>>, EvalError> {
    let report = crate::analyze::analyze_query(g, query, None);
    if report.is_provably_empty() {
        cache.note_short_circuit();
        return Ok(Governed::complete(Vec::new()));
    }
    isolate(|| {
        #[cfg(feature = "fault-injection")]
        kgq_core::govern::fault::hit("cypher::match");
        Ok(search(g, query, Some(gov)))
    })
}

/// The one search body behind [`execute`] and [`execute_governed`]:
/// with `None` no accounting runs and the result is always complete.
fn search(g: &PropertyGraph, query: &Query, gov: Option<&Governor>) -> Governed<Vec<Row>> {
    let mut ctx = Ctx {
        g,
        query,
        env: HashMap::new(),
        used_edges: Vec::new(),
        out: Vec::new(),
        ticker: Ticker::maybe(gov),
    };
    // The ticker consults the governor once per batch; the closing
    // flush charges the rest, so a search shorter than one batch still
    // answers to a step budget.
    match match_pattern(&mut ctx, 0).and_then(|()| ctx.ticker.flush()) {
        Ok(()) => Governed::complete(ctx.out),
        Err(why) => Governed::partial(ctx.out, why),
    }
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
            if let Some(gov) = ctx.ticker.governor() {
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
        None => ctx
            .g
            .labeled()
            .base()
            .nodes()
            .filter(|&n| node_label_ok(ctx.g, n, &first.label))
            .collect(),
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
            let governed = execute_governed(&g, &q, &cache, &Governor::unlimited()).unwrap();
            assert!(!governed.is_partial(), "{query}");
            assert_eq!(governed.value, execute(&g, &q), "{query}");
        }
        // The matcher compiles no path expression.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn unknown_label_short_circuits_to_empty() {
        let g = figure2_property();
        let cache = QueryCache::new();
        let q = parse_query("MATCH (p:ghost)-[:rides]->(b:bus) RETURN p").unwrap();
        let res = execute_governed(&g, &q, &cache, &Governor::unlimited()).unwrap();
        assert!(res.value.is_empty() && !res.is_partial());
        // The analyzer answered: the label is not even in the universe.
        assert_eq!(cache.short_circuits(), 1);
        assert!(execute(&g, &q).is_empty());
    }

    #[test]
    fn mutation_invalidates_cached_patterns() {
        let mut g = figure2_property();
        let q = parse_query("MATCH (p:person)-[:rides]->(b:bus) RETURN p, b").unwrap();
        let before = execute(&g, &q);
        let p9 = g.add_node("n9", "person").unwrap();
        let bus = g.labeled().node_named("n3").unwrap();
        g.add_edge("e9", p9, bus, "rides").unwrap();
        let after = execute(&g, &q);
        // The new rider is visible.
        assert_eq!(after.len(), before.len() + 1);
    }
}
