//! Static analysis of parsed queries against a graph's schema summary.
//!
//! Mirrors `kgq_core::analyze` for the pattern-matching fragment: the
//! labels, property keys and `(key, value)` pairs a query mentions are
//! checked against a [`SchemaSummary`] harvested from the target graph,
//! and provably-empty queries are flagged with `Deny` diagnostics so
//! [`crate::exec::execute_governed`] can short-circuit without searching.
//! The emitted [`Report`] reuses the core diagnostic and
//! rendering machinery, so `kgq cypher --explain` prints the same
//! severity/caret/verdict shape as `kgq query --explain`.
//!
//! Soundness: every `Deny` here is a proof of emptiness under the
//! executor's semantics —
//!
//! * a label absent from the label alphabet matches no node/edge
//!   ([`crate::exec`]'s `node_label_ok` compares against actual labels);
//! * `WHERE` comparisons follow Cypher's NULL semantics (a missing
//!   property satisfies neither `=` nor `<>`), so an unknown property
//!   key — or an unbound variable — falsifies its conjunct everywhere;
//! * properties are single-valued, so `v.p = 'a' AND v.p = 'b'` and
//!   `v.p = 'a' AND v.p <> 'a'` are contradictions;
//! * a variable used as both a node and a relationship binding can
//!   never be bound consistently.

use crate::ast::{CmpOp, Query};
use kgq_core::analyze::{ComplexityClass, Diagnostic, PlanAdvice, Report, Severity};
use kgq_graph::schema::SchemaSummary;
use kgq_graph::PropertyGraph;

/// Byte span of the first occurrence of `name` in the query text.
fn span_in(source: Option<&str>, name: &str) -> Option<(usize, usize)> {
    source.and_then(|text| text.find(name).map(|p| (p, name.len())))
}

/// Variable kind under the executor's binding rules.
#[derive(Clone, Copy, PartialEq, Eq)]
enum VarKind {
    Node,
    Rel,
}

/// Runs every pattern-fragment analysis on `query` against `g`'s schema
/// and assembles a [`Report`] (with `language: None` — language facts
/// are an RPQ notion).
///
/// `source`, when given, is the original query text; it enables byte-span
/// carets in rendered diagnostics. The report's `provably_empty` flag is
/// the executor's short-circuit signal: when set, `execute` over this
/// graph is guaranteed to return zero rows.
pub fn analyze_query(g: &PropertyGraph, query: &Query, source: Option<&str>) -> Report {
    let schema = SchemaSummary::from_property(g);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut empty = false;
    let push = |diags: &mut Vec<Diagnostic>, d: Diagnostic| {
        if !diags.iter().any(|x| x.message == d.message) {
            diags.push(d);
        }
    };

    // Pattern labels against the label alphabets.
    for pattern in &query.patterns {
        for node in &pattern.nodes {
            if let Some(label) = &node.label {
                let known = g
                    .labeled()
                    .sym(label)
                    .is_some_and(|s| schema.has_node_label(s));
                if !known {
                    empty = true;
                    push(
                        &mut diags,
                        Diagnostic {
                            severity: Severity::Deny,
                            code: "unknown-label",
                            message: format!("label `{label}` labels no node in this graph"),
                            span: span_in(source, label),
                        },
                    );
                }
            }
        }
        for rel in &pattern.rels {
            if let Some(label) = &rel.label {
                let known = g
                    .labeled()
                    .sym(label)
                    .is_some_and(|s| schema.has_edge_label(s));
                if !known {
                    empty = true;
                    push(
                        &mut diags,
                        Diagnostic {
                            severity: Severity::Deny,
                            code: "unknown-label",
                            message: format!(
                                "label `{label}` labels no relationship in this graph"
                            ),
                            span: span_in(source, label),
                        },
                    );
                }
            }
        }
    }

    // Variable kinds: a var bound as both node and relationship can
    // never re-bind consistently, so the pattern has no solutions.
    let node_vars = query.node_vars();
    let rel_vars = query.rel_vars();
    for v in &node_vars {
        if rel_vars.contains(v) {
            empty = true;
            push(
                &mut diags,
                Diagnostic {
                    severity: Severity::Deny,
                    code: "var-kind-conflict",
                    message: format!(
                        "variable `{v}` is bound as both a node and a relationship; \
                         the bindings can never agree"
                    ),
                    span: span_in(source, v),
                },
            );
        }
    }

    // WHERE conjuncts under NULL semantics.
    let kind_of = |v: &str| -> Option<VarKind> {
        if node_vars.contains(&v) {
            Some(VarKind::Node)
        } else if rel_vars.contains(&v) {
            Some(VarKind::Rel)
        } else {
            None
        }
    };
    for cond in &query.conditions {
        let Some(kind) = kind_of(&cond.var) else {
            empty = true;
            push(
                &mut diags,
                Diagnostic {
                    severity: Severity::Deny,
                    code: "unbound-variable",
                    message: format!(
                        "WHERE references `{}`, which MATCH never binds; \
                         the comparison is NULL (false) in every solution",
                        cond.var
                    ),
                    span: span_in(source, &cond.var),
                },
            );
            continue;
        };
        let key = g.labeled().sym(&cond.prop);
        let key_known = key.is_some_and(|k| match kind {
            VarKind::Node => schema.has_node_prop_key(k),
            VarKind::Rel => schema.has_edge_prop_key(k),
        });
        if !key_known {
            empty = true;
            let what = match kind {
                VarKind::Node => "node",
                VarKind::Rel => "relationship",
            };
            push(
                &mut diags,
                Diagnostic {
                    severity: Severity::Deny,
                    code: "unknown-property",
                    message: format!(
                        "no {what} has a `{}` property; under NULL semantics \
                         neither `=` nor `<>` can hold",
                        cond.prop
                    ),
                    span: span_in(source, &cond.prop),
                },
            );
            continue;
        }
        if cond.op == CmpOp::Eq {
            let pair_known =
                key.zip(g.labeled().sym(&cond.value))
                    .is_some_and(|(k, v)| match kind {
                        VarKind::Node => schema.has_node_prop_pair(k, v),
                        VarKind::Rel => schema.has_edge_prop_pair(k, v),
                    });
            if !pair_known {
                empty = true;
                push(
                    &mut diags,
                    Diagnostic {
                        severity: Severity::Deny,
                        code: "unsat-where",
                        message: format!(
                            "`{}.{} = '{}'` matches nothing: the pair never \
                             occurs in this graph",
                            cond.var, cond.prop, cond.value
                        ),
                        span: span_in(source, &cond.value),
                    },
                );
            }
        }
    }

    // Contradictory conjunct pairs over the same single-valued property.
    for (i, a) in query.conditions.iter().enumerate() {
        for b in &query.conditions[i + 1..] {
            if a.var != b.var || a.prop != b.prop {
                continue;
            }
            let contradiction = match (a.op, b.op) {
                (CmpOp::Eq, CmpOp::Eq) => a.value != b.value,
                (CmpOp::Eq, CmpOp::Ne) | (CmpOp::Ne, CmpOp::Eq) => a.value == b.value,
                (CmpOp::Ne, CmpOp::Ne) => false,
            };
            if contradiction {
                empty = true;
                push(
                    &mut diags,
                    Diagnostic {
                        severity: Severity::Deny,
                        code: "contradictory-where",
                        message: format!(
                            "`{}.{}` is single-valued: the WHERE conjuncts on it \
                             contradict each other",
                            a.var, a.prop
                        ),
                        span: span_in(source, &a.prop),
                    },
                );
            }
        }
    }

    // RETURN of an unbound variable projects empty strings — legal but
    // almost certainly a typo.
    for item in &query.returns {
        let v = match item {
            crate::ast::ReturnItem::Var(v) => v,
            crate::ast::ReturnItem::Prop(v, _) => v,
        };
        if kind_of(v).is_none() {
            push(
                &mut diags,
                Diagnostic {
                    severity: Severity::Warn,
                    code: "unbound-variable",
                    message: format!(
                        "RETURN references `{v}`, which MATCH never binds; \
                         it projects as an empty string"
                    ),
                    span: span_in(source, v),
                },
            );
        }
    }

    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));

    Report {
        diagnostics: diags,
        language: None,
        // Every pattern runs on the backtracking matcher.
        plan: PlanAdvice::Sequential,
        classes: vec![("match", ComplexityClass::NpHard)],
        provably_empty: empty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::parser::parse_query;
    use kgq_graph::figures::figure2_property;

    fn report_for(text: &str) -> (Report, usize) {
        let g = figure2_property();
        let q = parse_query(text).unwrap();
        let rows = execute(&g, &q).len();
        (analyze_query(&g, &q, Some(text)), rows)
    }

    #[test]
    fn unknown_node_label_is_provably_empty() {
        let text = "MATCH (p:ghost) RETURN p";
        let (r, rows) = report_for(text);
        assert!(r.is_provably_empty());
        assert_eq!(rows, 0);
        let rendered = r.render(text);
        assert!(rendered.contains("deny[unknown-label]"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
        assert!(rendered.contains("NP-hard"), "{rendered}");
    }

    #[test]
    fn unknown_edge_label_is_provably_empty() {
        let (r, rows) = report_for("MATCH (p:person)-[:teleports]->(b:bus) RETURN p");
        assert!(r.is_provably_empty());
        assert_eq!(rows, 0);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.message.contains("relationship")));
    }

    #[test]
    fn contradictory_where_conjuncts() {
        let (r, rows) = report_for("MATCH (p:person) WHERE p.age = '33' AND p.age = '34' RETURN p");
        assert!(r.is_provably_empty());
        assert_eq!(rows, 0);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == "contradictory-where"));

        let (r2, rows2) =
            report_for("MATCH (p:person) WHERE p.age = '33' AND p.age <> '33' RETURN p");
        assert!(r2.is_provably_empty());
        assert_eq!(rows2, 0);
    }

    #[test]
    fn compatible_where_conjuncts_are_not_flagged() {
        let (r, _) = report_for("MATCH (p:person) WHERE p.age <> '33' AND p.age <> '34' RETURN p");
        assert!(!r.is_provably_empty());
        let (r2, rows) = report_for("MATCH (p:person) WHERE p.age = '33' RETURN p.name");
        assert!(!r2.is_provably_empty());
        assert!(r2.diagnostics.is_empty());
        assert_eq!(rows, 1);
    }

    #[test]
    fn unknown_property_key_and_value_deny_under_null_semantics() {
        // `shoe_size` is not a property key anywhere.
        let (r, rows) = report_for("MATCH (p:person) WHERE p.shoe_size = '44' RETURN p");
        assert!(r.is_provably_empty());
        assert_eq!(rows, 0);
        assert!(r.diagnostics.iter().any(|d| d.code == "unknown-property"));

        // `age` exists, but nobody is 7.
        let (r2, rows2) = report_for("MATCH (p:person) WHERE p.age = '7' RETURN p");
        assert!(r2.is_provably_empty());
        assert_eq!(rows2, 0);
        assert!(r2.diagnostics.iter().any(|d| d.code == "unsat-where"));

        // `<>` against an unseen value is satisfiable (anyone with an age).
        let (r3, rows3) = report_for("MATCH (p:person) WHERE p.age <> '7' RETURN p");
        assert!(!r3.is_provably_empty());
        assert!(rows3 > 0);
    }

    #[test]
    fn unbound_variables_deny_in_where_and_warn_in_return() {
        let text = "MATCH (p:person) WHERE q.age = '33' RETURN p";
        let (r, rows) = report_for(text);
        assert!(r.is_provably_empty());
        assert_eq!(rows, 0);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == "unbound-variable" && d.severity == Severity::Deny));

        let (r2, _) = report_for("MATCH (p:person) RETURN p, q");
        assert!(!r2.is_provably_empty());
        assert!(r2
            .diagnostics
            .iter()
            .any(|d| d.code == "unbound-variable" && d.severity == Severity::Warn));
    }

    #[test]
    fn var_kind_conflict_is_empty() {
        let (r, rows) = report_for("MATCH (x:person)-[x:rides]->(b:bus) RETURN b");
        assert!(r.is_provably_empty());
        assert_eq!(rows, 0);
        assert!(r.diagnostics.iter().any(|d| d.code == "var-kind-conflict"));
    }

    #[test]
    fn plan_reflects_prefilter_applicability() {
        let (r, _) = report_for("MATCH (p:person)-[:rides]->(b:bus) RETURN p, b");
        assert_eq!(r.plan, PlanAdvice::Sequential);
        assert!(r.render("…").contains("sequential scan"));
        assert!(r.render("…").contains("NP-hard"));

        let (r2, _) = report_for("MATCH (p)-[:rides]->(b:bus) RETURN p, b");
        assert_eq!(r2.plan, PlanAdvice::Sequential);
    }
}
